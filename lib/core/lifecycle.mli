(** The hive transitions around a message's life: crash, failover,
    eviction and rejoin, restart with storage verification and outbox
    replay, and the elastic join, drain and decommission. {!Hives}
    decides which transitions are legal; this module runs their side
    effects on the bees, the transport, the store and the endpoints, and
    invalidates the route plan's lookup cache at each one. {!Platform}
    documents each operation. *)

type hive_event =
  | Crashed
  | Restarted
  | Added
  | Draining
  | Decommissioned

type t

val create :
  Beehive_sim.Engine.t ->
  chans:Beehive_net.Channels.t ->
  transport:Beehive_net.Transport.t ->
  reg:Registry.t ->
  hives:Hives.t ->
  bees:(int, Bee.t) Hashtbl.t ->
  endpoints:(Beehive_net.Channels.endpoint, Message.t -> unit) Hashtbl.t ->
  store:(Value.t, Outbox.entry) Beehive_store.Store.t option ->
  cache:Route_plan.cache ->
  dispatch:Dispatch.t ->
  lost_outbox:bool ->
  replay_dup:bool ->
  t
(** The tables are the ones routing and dispatch share. [lost_outbox]
    and [replay_dup] inject the bugs of those names into
    {!restart_hive}. *)

val on_hive : t -> (int -> hive_event -> unit) -> unit

val bees : t -> (Bee.t -> bool) -> Bee.t list
(** The bees that satisfy the predicate, in ascending id order. *)

val crash_hive : t -> int -> unit
val failover_hive : t -> int -> unit
val fail_hive : t -> int -> unit
val evict_hive : t -> int -> unit
val rejoin_hive : t -> int -> unit
val restart_hive : t -> int -> unit

val scrub_slice : t -> budget_bytes:int -> unit
(** Verifies up to [budget_bytes] of cold storage and rewrites a damaged
    live bee's from its in-memory state. *)

val broken_chains : t -> (int * string) list
val fsck_crashed_bees : t -> int -> (int * Beehive_store.Store.verdict) list
val add_hive : t -> int
val set_draining : t -> int -> bool -> unit
val drain_complete : t -> int -> bool
val decommission_hive : t -> int -> bool
