(** The transactional outbox's ledger.

    Every emit a durable bee commits is tracked here, by sender bee and
    then by outbox seq, until each receiver leg counted at its
    latest dispatch has durably applied it. The ledger also holds the
    receiver-side acks waiting for a hive's next fsync, the replay
    backoff schedule, the virtual sequence numbers given to injected and
    system messages, and the quarantine of messages whose handler
    exhausted its retry budget. {!Platform} owns one and does the routing
    and transmission; nothing here calls back into it. *)

type t
type entry

val create : unit -> t

(** {2 Entries} *)

val sender : entry -> int
val seq : entry -> int
val msg : entry -> Message.t

val add : t -> sender:int -> seq:int -> durable:bool -> Message.t -> unit
(** Starts tracking an emit until every receiver has durably applied it. *)

val find : t -> sender:int -> seq:int -> entry
(** @raise Not_found when the ledger holds no such entry. *)

val remove : t -> entry -> unit

val unacked : t -> int
(** Entries awaiting full acknowledgement. *)

val drop_sender : t -> int -> unit
(** Forgets every entry of one sender (dead, merged-corrupt or re-seeded). *)

val reseed : t -> sender:int -> durable:bool -> (int * Message.t) list -> unit
(** A failover or peer re-seed of [sender]: whatever the ledger holds for
    it belonged to the old incarnation and is dropped; the replica's
    un-acked [(seq, message)] entries are tracked in its place. *)

val drop_undurable : t -> sent_from:(int -> bool) -> unit
(** Crash-time scan: forgets every entry that is not yet durable and
    whose sender satisfies [sent_from] (the senders on the crashed hive) —
    it died with its group-commit record. *)

val mark_durable : entry -> bool
(** The entry's WAL record was fsynced. True when it has never been
    dispatched, i.e. when the caller must hand it to routing now. *)

(** {2 Dispatch and acknowledgement} *)

val attempted : entry -> bool
val start_attempt : entry -> now:Beehive_sim.Simtime.t -> unit
val last_attempt : entry -> Beehive_sim.Simtime.t

val set_required : entry -> int -> bool
(** Records the receiver legs of the latest dispatch; true when the
    acks already received cover them (always, for zero legs). *)

val ack : entry -> receiver:int -> bool
(** Records that [receiver] durably applied the entry; true once every
    required leg has. *)

val backoff : entry -> Beehive_sim.Simtime.t
(** Delay before re-dispatching after the latest attempt: 2 ms doubling
    per attempt, capped at 16 ms. *)

val still_due : t -> entry -> since:Beehive_sim.Simtime.t -> bool
(** Whether a replay armed at attempt time [since] should still fire: the
    entry is live, durable, and no newer attempt superseded it. *)

val queue_ack : t -> hive:int -> sender:int -> seq:int -> receiver:int -> unit
(** Queues a [(sender, seq, receiver bee)] ack behind the receiver hive's
    next fsync. *)

val queued_acks : t -> hive:int -> (int * int * int) list
(** The hive's queued acks, newest first. *)

val keep_acks : t -> hive:int -> (int * int * int) list -> unit
(** Replaces the hive's queue, newest first, with the part of
    {!queued_acks} that must keep waiting. *)

val clear_acks : t -> hive:int -> unit
(** The hive crashed: its queued acks were in memory. *)

val next_virtual_seq : t -> int
(** Sequence numbers for the virtual sender [-1]: deduped by receivers,
    never replayed or acked. *)

val note_duplicate : t -> unit
val duplicates : t -> int
(** Deliveries suppressed by a receiver's durable inbox. *)

(** {2 Retry and quarantine} *)

val retry_budget : int
(** Handler attempts a delivery gets (first try included). *)

val retry_delay : attempts:int -> Beehive_sim.Simtime.t option
(** Backoff before the next attempt after [attempts] failed ones (200 us
    doubling); [None] once the budget is spent and the message goes to
    quarantine. *)

val quarantine : t -> bee:int -> Message.t -> string -> unit
val quarantined_messages : t -> bee:int -> (Message.t * string) list
val total_quarantined : t -> int

val quarantined_bees : t -> int
(** Bees holding at least one quarantined message. *)

val rows : (int * Message.t) list -> (int * int) list
(** The [(seq, bytes)] rows the store logs for these entries. *)
