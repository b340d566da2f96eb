(** Priority queue of timed events.

    A binary min-heap keyed by [(time, sequence)]. The sequence number
    breaks ties so that events scheduled for the same instant fire in
    insertion order, keeping the simulation deterministic.

    Pushing allocates the queue's own entry and nothing else; reading and
    removing the earliest event allocate nothing: the time comes back
    bare, and a handle is that entry. *)

type 'a t

type 'a handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool
(** No live (queued, non-cancelled) event is left. *)

val push : 'a t -> Simtime.t -> 'a -> 'a handle
(** [push q at x] schedules [x] at time [at]. *)

val value : 'a handle -> 'a
(** The value the event was pushed with. *)

val seq : 'a handle -> int
(** The event's push number: distinct for every push into one queue, and
    -1 for a {!detached} handle. *)

val pushes : 'a t -> int
(** How many events were pushed so far: every event pushed from now on
    gets a push number at least this. *)

val detached : 'a -> 'a handle
(** A handle that was never queued: it is not the handle of any pushed
    event, and cancelling it returns [false]. A placeholder for a
    mutable handle field before its first push. *)

val cancel : 'a t -> 'a handle -> bool
(** [cancel q h] removes the event, returning [false] if it already fired
    or was already cancelled. Cancellation is lazy deletion, amortised
    O(1): when tombstones outnumber live entries the heap is compacted
    in place (pop order is unaffected — [(time, seq)] is total). *)

val next_time : 'a t -> Simtime.t
(** Time of the earliest live event. Raises [Invalid_argument] when
    {!is_empty}. *)

val take : 'a t -> 'a handle
(** Removes the earliest live event and returns its handle, which then
    counts as fired. Raises [Invalid_argument] when {!is_empty}. *)

val physical_size : 'a t -> int
(** Heap slots in use, cancelled tombstones included — observability
    for the compaction policy. *)
