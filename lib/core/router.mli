(** Routing, the first stage of a message's life (Section 3, "Life of a
    Message"): map the message for every subscriber, apply each Cells
    leg's {!Route_plan}, and transmit the leg to the bee it picked on an
    engine lane.

    Like {!Migration} and {!Recovery}, this module never calls the
    platform or the dispatch side: bee creation, a merged bee's resume
    and the lanes a leg lands on are handed to {!create}. It holds what
    routing alone reads (the subscriber lists, the lookup cache, the
    hive capacity) and the drop and map-fault counts. *)

type t

(** Why a message was discarded. *)
type drop_reason =
  | Dead_target  (** addressed to a dead or crashed bee/hive *)
  | Dead_origin  (** emitted from a crashed hive *)
  | Missing_endpoint
      (** sent to an unregistered IO endpoint, or landing at one
          unregistered while it was on the wire *)
  | Retransmit_exhausted  (** the transport gave up after 80 copies *)

val create :
  Beehive_sim.Engine.t ->
  chans:Beehive_net.Channels.t ->
  transport:Beehive_net.Transport.t ->
  reg:Registry.t ->
  locks:Cell_locks.t ->
  hives:Hives.t ->
  store:(Value.t, Outbox.entry) Beehive_store.Store.t option ->
  outbox:Outbox.t ->
  bees:(int, Bee.t) Hashtbl.t ->
  cache:Route_plan.cache ->
  capacity:int ->
  new_bee:(app:App.t -> hive:int -> is_local:bool -> Bee.t) ->
  resume:(Bee.t -> unit) ->
  arrivals:Bee.delivery Beehive_sim.Engine.lane ->
  fanouts:Bee.delivery list Beehive_sim.Engine.lane ->
  t
(** [bees] is shared with the caller, which adds bees through
    [new_bee]. Routing keeps each app's local bees itself, in an array
    by hive ({!forget_local}). A
    Cells or Local leg lands on [arrivals], a Foreach copy with its
    hive's legs on [fanouts]. [resume] is handed every bee a merge
    releases. [capacity] is the most cells one hive may host. *)

val add_app : t -> App.t -> unit
(** Subscribes the app's handlers, in app-name order per kind. *)

val forget_local : t -> app:string -> hive:int -> unit
(** The app's local bee on [hive] is gone: its next Local leg there
    creates a new one. *)

val route : t -> src_ep:Beehive_net.Channels.endpoint -> Message.t -> unit
(** Routes a new message from [src_ep] to every subscriber; a message
    whose origin hive has crashed is dropped as [Dead_origin]. *)

val route_subscribers :
  t ->
  src_ep:Beehive_net.Channels.endpoint ->
  origin:int ->
  outbox:Beehive_store.Mark.t ->
  first:bool ->
  Message.t ->
  int
(** Maps the message for every subscriber and routes each leg, its Cells
    legs tagged with the [outbox] mark; returns the number of Cells legs.
    A Cells leg without a mark ({!Beehive_store.Mark.none}) to a durable
    bee gets the virtual sender's next mark. A replay ([first = false])
    re-sends only the Cells legs. *)

val transmit :
  t ->
  src_ep:Beehive_net.Channels.endpoint ->
  dst_hive:int ->
  bytes:int ->
  extra:Beehive_sim.Simtime.t ->
  ?on_drop:(unit -> unit) ->
  'a Beehive_sim.Engine.lane ->
  'a ->
  unit
(** Moves [bytes] from [src_ep] to hive [dst_hive] and posts the value on
    the lane on arrival, [extra] later. Same-hive traffic is a plain
    post; cross-hive traffic rides the at-least-once
    {!Beehive_net.Transport}. [on_drop] runs, after a
    [Retransmit_exhausted] drop, if the value can never arrive. *)

val thunks : t -> (unit -> unit) Beehive_sim.Engine.lane
(** The lane whose values are closures, each run as it lands. *)

val drop : t -> drop_reason -> unit

val dropped : t -> int
(** Drops so far, every reason together. *)

val drop_counts : t -> (string * int) list
(** The [dropped.<reason>] gauges. *)

val fault : t -> unit
(** Counts one handler fault contained at a dispatch boundary: routing
    counts the map functions that raise, the dispatch side the rest. *)

val faults : t -> int

val merges : t -> int
(** Bees merged away so far. *)
