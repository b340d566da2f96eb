(** Priority queue of timed events.

    A binary min-heap keyed by [(time, push number)]. The push number
    breaks ties so that events pushed for the same instant come out in
    push order, keeping the simulation deterministic.

    The heap is three parallel arrays (times, push numbers, values), and
    an event's handle is its push number, an immediate int. Once the
    arrays have grown, pushing, cancelling and taking allocate nothing:
    {!take} returns the bare value and {!taken} its push number. What
    the queue keeps besides the heap is the set of push numbers still
    queued, sized by the events in flight, not by the events ever
    pushed. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
(** No live (queued, non-cancelled) event is left. *)

val push : 'a t -> Simtime.t -> 'a -> int
(** [push q at x] schedules [x] at time [at] and returns the event's
    push number: [pushes q] before the push, so distinct for every push
    into one queue and never negative. The push number is the event's
    handle. *)

val pushes : 'a t -> int
(** How many events were pushed so far: every event pushed from now on
    gets a push number at least this. *)

val cancel : 'a t -> int -> bool
(** [cancel q p] removes the event pushed as number [p], returning
    [false] if it already fired, was already cancelled, or [p] is no
    push number of [q] (negative, or not yet issued). Cancellation is
    lazy deletion, amortised O(1): when tombstones outnumber live
    events the heap is compacted in place (pop order is unaffected —
    [(time, push number)] is total). *)

val next_time : 'a t -> Simtime.t
(** Time of the earliest live event. Raises [Invalid_argument] when
    {!is_empty}. *)

val take : 'a t -> 'a
(** Removes the earliest live event and returns its value; the event
    then counts as fired. Raises [Invalid_argument] when {!is_empty}. *)

val taken : 'a t -> int
(** The push number of the event {!take} returned last, -1 before the
    first. *)

val physical_size : 'a t -> int
(** Heap slots in use, cancelled tombstones included — observability
    for the compaction policy. *)
