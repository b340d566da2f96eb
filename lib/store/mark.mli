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

(** {2 Int-keyed tables}

    A mutable map from non-negative ints to values in two parallel
    arrays, open-addressed: linear probing from a multiplicative hash,
    at most half full, and removal by backward shift, so no tombstone
    stays behind. A fresh table holds no slots and takes 16 at its first
    key. Finding, replacing and removing allocate nothing once the table
    has grown, and no lookup hashes through [caml_hash]. A store keeps a
    bee's durable outbox rows in one, by seq. A slot a removal empties
    keeps its old value until a key reuses it or the table grows. *)
module Table : sig
  type 'a t

  val create : unit -> 'a t

  val find : 'a t -> int -> 'a
  (** Raises [Not_found] if the key is absent. *)

  val find_or : 'a t -> int -> 'a -> 'a
  (** [find_or t k d] is [k]'s value, or [d] if [k] is absent. *)

  val replace : 'a t -> int -> 'a -> unit
  (** Binds the key to the value. Raises [Invalid_argument] on a
      negative key. *)

  val remove : 'a t -> int -> unit
  (** Removes the key if present. *)

  val length : 'a t -> int
  val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

  val clear : 'a t -> unit
  (** Removes every key and gives the slots back. *)
end

(** {2 Sets of marks}

    A mutable set of marks. Each sender has a floor, the highest seq [f]
    such that its seqs [1 .. f] are all members, kept in a {!Table} by
    sender; an open-addressed table of ints like {!Table}'s keys holds
    only the marks above their sender's floor (and seq 0, which no floor
    covers). Adding seq [f + 1] raises the floor over it and over every
    seq contiguous above it, which leave the table; removing a seq at or
    under the floor splits it, and the seqs above the removed one enter
    the table. So a sender whose seqs arrive in order, or out of order
    within a window, costs one floor and no more than a window of slots.
    Adding, finding and removing a mark above its floor allocate nothing
    once the tables have grown. A fresh set holds no slots. *)
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
  (** Visits every member once, in no particular order. *)

  val clear : t -> unit
  (** Removes every mark and gives the slots back. *)
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
