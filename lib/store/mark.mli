(** Exactly-once inbox marks as immediate ints.

    A mark names one delivery on the exactly-once path: the sending
    bee and the outbox seq it gave the message, or the virtual sender
    [-1] and a virtual seq for a message injected from outside any bee.
    Both halves pack into one non-negative int,
    [(sender + 1) lsl 32 lor seq], so a mark is stored, compared and
    hashed as a plain int: it allocates nothing, and marks sort as their
    [(sender, seq)] pairs do. {!none} is the one negative value: a
    delivery off the exactly-once path. *)

type t = private int

val none : t
(** No mark: the delivery is not deduped, journaled or acked. *)

val max_sender : int
(** The largest sender a mark can name ([2{^30} - 2]). *)

val max_seq : int
(** The largest seq a mark can hold ([2{^32} - 1]). *)

val make : sender:int -> seq:int -> t
(** The mark of [sender]'s message [seq]. Raises [Invalid_argument]
    unless [-1 <= sender <= max_sender] and [0 <= seq <= max_seq]. *)

val of_int : int -> t
(** The mark an int holds, as [(m :> int)] gave it. Raises
    [Invalid_argument] on a negative int other than [(none :> int)]. *)

val is_none : t -> bool

val sender : t -> int
(** [-1] for a virtual sender's mark. Undefined on {!none}. *)

val seq : t -> int
(** Undefined on {!none}. *)

val acked : t -> bool
(** Whether the mark names a bee, which waits for its ack: false for
    the virtual sender and for {!none}. *)

val compare : t -> t -> int
(** The [(sender, seq)] order. *)

(** {2 Sets of marks}

    A mutable set of marks in one open-addressed table of ints: linear
    probing from a multiplicative hash, at most half full, and removal
    by backward shift, so no tombstone stays behind. Adding, finding and
    removing a mark allocate nothing once the table has grown. A fresh
    set holds 16 slots. *)
module Set : sig
  type mark := t
  type t

  val create : unit -> t
  val mem : t -> mark -> bool

  val add : t -> mark -> unit
  (** Adds the mark if absent. Raises [Invalid_argument] on {!none}. *)

  val remove : t -> mark -> unit
  (** Removes the mark if present. *)

  val cardinal : t -> int
  val fold : (mark -> 'a -> 'a) -> t -> 'a -> 'a

  val clear : t -> unit
  (** Removes every mark and shrinks the table back to 16 slots. *)
end

(** {2 Ack buffers}

    The acks a receiver owes: [(receiver bee, mark)] pairs, in the order
    they were pushed, in one reused int array. *)
module Acks : sig
  type mark := t
  type t

  val create : unit -> t
  val push : t -> receiver:int -> mark -> unit
  val length : t -> int

  val receiver : t -> int -> int
  (** [receiver a i] is the [i]th pair's receiver bee, [0 <= i < length a]. *)

  val mark : t -> int -> mark

  val clear : t -> unit
  (** Empties the buffer and keeps its array for reuse. *)
end
