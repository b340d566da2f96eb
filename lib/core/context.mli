(** Handler execution context.

    Passed to every handler invocation. It scopes state access to the
    entries the message was mapped to (the platform's consistency guarantee
    relies on handlers not reaching outside their mapped cells — doing so
    raises {!Access_violation}), runs all writes in the invocation's
    transaction, and lets the handler emit further messages. *)

exception Access_violation of { app : string; dict : string; key : string }
(** Kept although nothing matches it by name: the platform contains it
    like any handler exception, and its fields name the access in the
    failure log. *)

type t

type env
(** A bee's handler constants: its source, random stream, clock, late
    sink and its one transaction, which every {!make} reopens. The
    platform builds one per bee and a new one only when the bee's source
    changes, so a context costs its delivery's fields alone. *)

type late =
  t -> Beehive_net.Channels.endpoint option -> ?size:int -> kind:string -> Message.payload -> unit
(** Where an emit ([None]) or endpoint send ([Some ep]) made after
    {!close} goes: it cannot ride the closed transaction. *)

val env :
  src:Message.source ->
  now:(unit -> Beehive_sim.Simtime.t) ->
  rng:Beehive_sim.Rng.t ->
  late:late ->
  env
(** [src] is the bee's [Message.From_bee] (any other source raises
    [Invalid_argument]); every message its handlers emit carries this
    very value. *)

val source : env -> Message.source

val with_source : env -> src:Message.source -> env
(** The same constants and transaction under a new source: the bee
    moved hives. *)

val make :
  env ->
  state:State.t ->
  read_shadow:(string * string * Value.t) list option ->
  allowed:Mapping.t ->
  message:Message.t ->
  t
(** Used by the platform (and by tests that drive handlers directly).
    Reopens the env's transaction against [state]: the env's previous
    context must be closed and its transaction finished.
    [allowed] is the delivery's [d_allowed]: a [Key] admits its one cell,
    checked by comparing two strings; a [Cells] admits every key its
    cells intersect; any other mapping admits nothing. A [Key] and the
    singleton [Cells] of its cell admit the same accesses.
    [message] is the message being handled. [read_shadow], when [Some],
    serves all {e pure} reads ({!get}, {!mem}, {!iter_dict}) from the
    snapshot instead of the transaction — the hook behind the injected
    [Platform.Stale_read] bug. Writes and {!update}'s read-modify-write
    are never shadowed. *)

val bee_id : t -> int

val hive_id : t -> int
(** Read from the bee's source, like {!bee_id}: the hive the bee
    handles on. *)

val now : t -> Beehive_sim.Simtime.t

val rng : t -> Beehive_sim.Rng.t
(** The bee's seeded random stream. Kept although no shipped handler draws
    from it: it is the handler API's only source of reproducible
    randomness. *)

val message : t -> Message.t
(** The message being handled. *)

(** {2 The platform's side}

    The context owns what the handler buffers; the platform reads it
    back when the invocation completes. *)

val tx : t -> State.tx
(** The invocation's transaction, which the platform commits or rolls
    back. *)

val close : t -> unit
(** Marks the handler as returned: later emits and sends go to [late],
    and later state accesses raise. *)

val emitted : t -> Message.t list
(** Messages emitted before {!close}, newest first. *)

val sent : t -> (Beehive_net.Channels.endpoint * Message.t) list
(** Endpoint sends made before {!close}, newest first. *)

(** {2 State access (within mapped cells)}

    Once the context is closed, each raises [Invalid_argument] before it
    reaches the transaction, which a later delivery may have reopened. *)

val get : t -> dict:string -> key:string -> Value.t option
val mem : t -> dict:string -> key:string -> bool
val set : t -> dict:string -> key:string -> Value.t -> unit
val del : t -> dict:string -> key:string -> unit

val update :
  t -> dict:string -> key:string -> (Value.t option -> Value.t option) -> unit
(** Read-modify-write of one entry; [None] result deletes. [f]'s
    result becomes the pending write as it is, so [f] returning its
    argument (a committed [Some]) allocates no option. *)

val iter_dict : t -> dict:string -> (string -> Value.t -> unit) -> unit
(** Iterates the entries of [dict] within the cells the leg was routed
    with (every entry when they include the dictionary's wildcard).
    Raises {!Access_violation} if [dict] is not mapped at all. *)

(** {2 Messaging} *)

val emit : t -> ?size:int -> kind:string -> Message.payload -> unit
(** Emits an asynchronous message into the platform; it is dispatched to
    every application with a handler for [kind].

    With the platform's transactional outbox, an emit made while the
    handler is running buffers in the open transaction and only
    takes effect at commit: if the handler raises, the state delta and
    every buffered emit are discarded together, and on a durable platform
    the emits are fsynced in the same group-commit record as the write
    set before transport sees them. An emit made from an asynchronous
    continuation that outlives the handler (e.g. an external-store RPC
    callback) cannot ride the closed transaction and dispatches
    immediately, with none of those guarantees. *)

val send_to :
  t -> Beehive_net.Channels.endpoint -> ?size:int -> kind:string ->
  Message.payload -> unit
(** Sends over an IO channel (e.g. driver-to-switch wire messages).
    Buffered transactionally exactly like {!emit}. *)
