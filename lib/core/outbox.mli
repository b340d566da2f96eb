(** The transactional outbox's ledger.

    An {!entry} is one emit's delivery bookkeeping: the receiver legs of
    its latest dispatch, the receivers that acked, and its replay
    attempts. Which entries are still un-acked is not kept here: each
    entry is its own row in the sender's store outbox
    ({!Beehive_store.Store.t}), which is the one record of them — a
    crash, a torn tail, a re-seed or an ack that removes the row removes
    the entry with it. Nor are the acks a receiver owes: the store hands
    each one over when the fsync makes its inbox mark durable
    ({!Beehive_store.Store.append}). The ledger itself holds the virtual
    sequence numbers given to injected and system messages, and the
    quarantine of messages whose handler exhausted its retry budget.
    {!Platform} owns one and does the routing and transmission; nothing
    here calls back into it. *)

type t
type entry

val create : unit -> t

(** {2 Entries} *)

val mark : entry -> Beehive_store.Mark.t
(** [(sender, seq)], the receivers' dedup key. *)

val sender : entry -> int
val seq : entry -> int
val msg : entry -> Message.t

val bytes : entry -> int
(** The payload bytes the store logs for the entry: its message's size. *)

val emit : sender:int -> seq:int -> Message.t -> entry
(** A fresh, never-dispatched entry for [sender]'s emit under [seq]: the
    outbox row the store logs for it. *)

(** {2 Dispatch and acknowledgement} *)

val attempted : entry -> bool

val start_attempt : entry -> now:Beehive_sim.Simtime.t -> unit
(** Counts an attempt at [now]. One at a later instant than the last
    supersedes every recheck armed so far; one at the same instant
    supersedes none. *)

val last_attempt : entry -> Beehive_sim.Simtime.t

val set_required : entry -> int -> bool
(** Records the receiver legs of the latest dispatch; true when the
    acks already received cover them (always, for zero legs). *)

val ack : entry -> receiver:int -> bool
(** Records that [receiver] durably applied the entry; true once every
    required leg has. The first receiver to ack allocates nothing. *)

val backoff : entry -> Beehive_sim.Simtime.t
(** Delay before re-dispatching after the latest attempt: 2 ms doubling
    per attempt, capped at 16 ms. *)

(** {2 Rechecks}

    A recheck is armed at an attempt's backoff horizon, and rechecks are
    taken in the order they were armed: each is armed no earlier and
    with no shorter backoff than the one before, and an engine lane
    runs equal times in push order. So the entry needs no per-recheck
    record of the attempt that armed it: two counts tell whether the
    recheck taken now was superseded. *)

val arm_recheck : entry -> unit
(** Counts one recheck armed at the entry's latest attempt. *)

val take_recheck : entry -> bool
(** Takes the oldest armed recheck; true when it is fresh: no attempt
    at a later instant than the one it was armed at came since. *)

val still_due : entry -> current:entry -> fresh:bool -> bool
(** Whether a recheck should replay the entry: it is [fresh] (see
    {!take_recheck}), and [current], what the sender's store outbox
    holds under the entry's seq now, is this very entry. *)

val next_virtual_seq : t -> int
(** Sequence numbers for the virtual sender [-1]: deduped by receivers,
    never replayed or acked. *)

val note_duplicate : t -> unit
val duplicates : t -> int
(** Deliveries suppressed by a receiver's durable inbox. *)

(** {2 Retry and quarantine} *)

val retry_budget : int
(** Handler attempts a delivery gets (first try included). Only
    {!retry_delay} reads it here; it is exported so the tests that count
    a poisoned message's attempts follow it. *)

val retry_delay : attempts:int -> Beehive_sim.Simtime.t option
(** Backoff before the next attempt after [attempts] failed ones (200 us
    doubling); [None] once the budget is spent and the message goes to
    quarantine. *)

val quarantine : t -> bee:int -> Message.t -> string -> unit
val quarantined_messages : t -> bee:int -> (Message.t * string) list
val total_quarantined : t -> int

val quarantined_bees : t -> int
(** Bees holding at least one quarantined message. *)

