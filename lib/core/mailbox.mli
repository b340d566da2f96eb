(** A bee's FIFO of queued deliveries.

    A growable ring buffer: a push allocates nothing once the buffer has
    grown to the bee's largest backlog, where a [Stdlib.Queue] allocates
    a cell per push. Popped slots are overwritten with the [filler] given
    at creation, so the buffer keeps no popped value alive. *)

type 'a t

val create : filler:'a -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a -> 'a t -> unit
(** Adds at the back, as [Queue.push]. *)

val pop : 'a t -> 'a
(** Removes and returns the front. Raises [Invalid_argument] when empty. *)

val clear : 'a t -> unit

val transfer : 'a t -> 'a t -> unit
(** [transfer src dst] appends every value of [src] to [dst] in order
    and empties [src], as [Queue.transfer]. *)
