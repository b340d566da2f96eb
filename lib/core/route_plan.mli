(** The routing decision for one Cells leg of a message (Section 3,
    "Life of a Message"): which bee gets it, and what ownership change
    that takes.

    {!decide} is a pure function of the registry, the hive table and the
    lookup cache; it touches no bee, engine or transport. The platform
    applies the returned plan. *)

type cache
(** Cached lock-service lookups, keyed by the origin hive, the app and
    the first mapped cell: the owner found and the registry version it
    was found at. Looking a key up allocates nothing. *)

val create_cache : unit -> cache

val remember : cache -> origin:int -> app:string -> Cell.Set.t -> owner:int -> version:int -> unit
(** Records the owner a lookup for these mapped cells found at this
    registry version. *)

type t =
  | Create of int
      (** No owner: a new bee on this hive claims every mapped cell. *)
  | Use of { bee : int; claim : Cell.Set.t; lookup : bool }
      (** The single owner. It claims [claim], the mapped cells it does
          not own yet. With nothing to claim, [lookup] asks for one
          lock-service lookup: the owner is remote and the cache has no
          entry for it at this registry version. *)
  | Merge of { winner : int; losers : int list }
      (** The mapped cells bridge several owners. The winner owns the
          most cells (ties to the lowest id) and is never on a crashed
          hive; bees on crashed hives may only lose. *)
  | Drop  (** Every owner is on a crashed hive. *)

val decide :
  Registry.t -> Hives.t -> cache -> version:int -> app:string -> origin:int -> Cell.Set.t -> t
(** [decide reg hives cache ~version ~app ~origin cells] for a non-empty
    [cells] mapped by [app] on a message that originated on [origin]. *)

val unowned : Registry.t -> bee:int -> Cell.Set.t -> Cell.Set.t
(** The cells of the set the bee does not own itself. *)
