(** Dispatch, the second and third stages of a message's life (Section
    3, "Life of a Message"): a leg lands in its bee's mailbox, the bee
    runs the handler in a transaction as one engine event, and the
    commit writes the WAL, reports to the emit hooks and the replicator,
    and hands the emits back to {!Router} (at once, or once the store's
    fsync makes them durable). A handler that raises is rolled back and
    retried with backoff, then quarantined. This module also runs the
    outbox's ack path and replay.

    It names {!Router}, which it routes emits through; routing reaches
    it only through the functions {!Platform} ties at creation. *)

type t

type commit_info = {
  ci_bee : int;
  ci_hive : int;
  ci_writes : (string * string * Value.t option) list;
  ci_emits : (int * Message.t) list;
      (** outbox entries committed by this transaction, [(seq, message)] —
          a consensus-replicated app ships these alongside the write set
          so a failover can re-seed the new primary's outbox *)
  ci_inbox : Beehive_store.Mark.t list;  (** inbox dedup marks the transaction consumed *)
}

type replicator = {
  commit : commit_info -> unit;
      (** called after every successful transaction commit of a non-local
          bee of a [replicated] app that wrote state, emitted, or consumed
          an inbox mark *)
  acked : bee:int -> seq:int -> unit;
      (** the bee's outbox entry [seq] was retired (every addressed
          receiver durably applied it): its replicated copy can be
          trimmed *)
  recover : bee:int -> Recovery.replica option;
      (** the replica a bee of a [replicated] app is restored from by a
          failover or a corrupt-storage repair: the bee fails over (or is
          re-seeded) with its state, and its WAL is re-seeded with its
          un-acked outbox entries and inbox marks (the entries are then
          replayed; receivers that already applied them dedup and ack) *)
}

val create :
  Beehive_sim.Engine.t ->
  chans:Beehive_net.Channels.t ->
  reg:Registry.t ->
  hives:Hives.t ->
  router:Router.t ->
  store:(Value.t, Outbox.entry) Beehive_store.Store.t option ->
  outbox:Outbox.t ->
  bees:(int, Bee.t) Hashtbl.t ->
  endpoints:(Beehive_net.Channels.endpoint, Message.t -> unit) Hashtbl.t ->
  forwarding:bool ->
  dedup:bool ->
  late:Context.late ->
  ack_batches:int array Beehive_sim.Engine.lane ->
  rechecks:Outbox.entry Beehive_sim.Engine.lane ->
  t
(** [bees] and [endpoints] are shared with the caller. [late] is where
    every bee's late emits go: this dispatch's own {!late_emit}. A batch
    of acks lands on [ack_batches], whose callback is this dispatch's
    {!acks_landed}, and an entry's recheck on [rechecks], whose callback
    is its {!recheck}.
    [forwarding = false] injects the [forwarding] bug (a leg to a
    merged-away bee is dropped), [dedup = false] the inbox half of
    [dedup-off]. *)

(** {2 Bees and their mailboxes} *)

val new_bee : t -> app:App.t -> hive:int -> is_local:bool -> Bee.t
(** Creates, registers and returns the next bee: its id is the number of
    bees created so far. *)

val arrive : t -> Bee.delivery -> unit
(** A leg lands at the bee routing picked (following any merge's
    forwarding pointer) and queues in its mailbox; a leg for a dead bee,
    or one sent before the bee's hive last crashed, is dropped. *)

val arrive_all : t -> Bee.delivery list -> unit
(** {!arrive} for each leg of a Foreach copy, in order. *)

val maybe_process : t -> Bee.t -> unit
(** Starts the bee's next handler if it is runnable and idle: a
    duplicate is suppressed (and re-acked if its mark is durable), any
    other delivery schedules its completion event. *)

val late_emit : t -> Context.late
(** Builds an emit or send made after its handler returned at the bee's
    current hive, reports it to the emit hooks and dispatches it at
    once. *)

(** {2 The outbox} *)

val dispatch_outbox_entry :
  t -> (Value.t, Outbox.entry) Beehive_store.Store.t -> Outbox.entry -> first:bool -> unit
(** Hands a durable outbox entry to routing (its Cells legs only, unless
    [first]) and arms its recheck at the attempt's backoff horizon; a
    down sender's entry waits. *)

val recheck : t -> Outbox.entry -> unit
(** An entry's recheck is due: it re-dispatches the entry unless a newer
    attempt superseded the one that armed it, or the store's outbox no
    longer holds this very entry. *)

val acks_landed : t -> int array -> unit
(** One hive's batch of acks landed at the senders' hive: the
    [(receiver bee, mark)] pairs, flattened, oldest first. Each one the
    sender's store still holds an entry for counts toward retiring it. *)

val fsynced : t -> hive:int -> bytes:int -> unit
(** The store's fsync report: charges the bytes to the hive's row of the
    traffic matrix and runs the fsync hooks. *)

val durable :
  t ->
  hive:int ->
  acks:Beehive_store.Mark.Acks.t ->
  Outbox.entry Beehive_store.Store.Rows.t ->
  unit
(** What a hive's fsync made durable: the acks its records' inbox marks
    owe and the outbox entries to dispatch, each oldest first, in the
    store's reused buffers. The acks go out as one int array per sender
    hive. *)

(** {2 Hooks and counters} *)

val router : t -> Router.t
val store : t -> (Value.t, Outbox.entry) Beehive_store.Store.t option

val observe : t -> parent:Message.t option -> Message.t -> unit
(** Shows a new message to the emit hooks. *)

val on_emit :
  t ->
  (parent:Message.t option -> child:Message.t -> emitter:Message.source -> unit) ->
  unit

val on_fsync : t -> (int -> unit) -> unit

val set_replicator : t -> replicator -> unit
(** Raises [Invalid_argument] if one is set already. *)

val replicator : t -> replicator option

val processed : t -> int
(** Handler completions so far, retries included. *)

val latency_percentile : t -> float -> int option
(** Emission-to-handler delay percentile over every handled message, in
    microseconds. *)
