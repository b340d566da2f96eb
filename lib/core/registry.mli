(** Cell-ownership registry.

    The authoritative mapping from cells to bees and from bees to hives —
    conceptually the data guarded by the distributed lock service
    (Section 3, "Life of a Message"). The registry enforces the paper's
    core invariant: {e every cell is owned by exactly one bee}, where a
    wildcard cell [(dict, All)] conflicts with every key of [dict].

    This module is a pure data structure; the platform drives it and
    charges the corresponding lock-service round trips on the control
    channel. *)

type t

type bee_info = private {
  bee_id : int;
  bee_app : string;
  mutable bee_hive : int;
  mutable bee_cells : Cell.Set.t;
}

val create : unit -> t

val register_bee : t -> bee_id:int -> app:string -> hive:int -> bee_info
(** Declares a new (cell-less) bee. Bee ids must be fresh. *)

val find_bee : t -> int -> bee_info option
val bee : t -> int -> bee_info
(** Raises [Not_found]. *)

val owner : t -> app:string -> Cell.Set.t -> int
(** The one bee of [app] owning a cell that intersects the given set:
    its id, {!no_owner} when no bee does, or {!several} when more than
    one does. The routing path's lookup: it allocates nothing for a
    keyed cell or an owned wildcard. A set of wildcards whose dicts
    share one wildcard owner resolves to that owner without visiting
    the dicts' keys, since single ownership leaves every owned key of
    those dicts to it. *)

val key_owner : t -> app:string -> dict:string -> key:string -> int
(** {!owner} of the one keyed cell [(dict, key)], with no cell or set
    built: its dict's wildcard owner joined with the owner the per-key
    index names, by the same rule {!owner} applies to each keyed cell
    of a set. *)

val holds_key : t -> app:string -> bee:int -> dict:string -> key:string -> bool
(** Exact membership of one keyed cell: the per-key index names [bee].
    A key covered only by the bee's wildcard is not held, so a claim
    still records it. Allocates nothing. *)

val holds_all : t -> app:string -> bee:int -> Cell.Set.t -> bool
(** Whether [bee] holds every cell of the set exactly: each keyed cell
    as {!holds_key} decides, each wildcard when the bee owns that very
    wildcard. The walk allocates nothing. *)

val unheld : t -> app:string -> bee:int -> Cell.Set.t -> Cell.Set.t
(** The cells of the set that [bee] does not hold exactly
    ({!holds_all}). *)

val no_owner : int
(** -1 *)

val several : int
(** -2 *)

val owners : t -> app:string -> Cell.Set.t -> int list
(** All distinct bees of [app] owning a cell that intersects the given
    set, in ascending bee id order. The platform's consistency rule: if
    this returns more than one bee, those bees must be merged before the
    message is processed. *)

val owners_of_dict : t -> app:string -> dict:string -> int list
(** Bees owning at least one cell (or the wildcard) of [dict] — the
    [foreach] fan-out set — in ascending bee id order, as {!owners} of
    the dict's wildcard returns them. It allocates only the list. *)

val assign : t -> bee:int -> Cell.Set.t -> unit
(** Grants ownership of the cells to the bee. Raises [Invalid_argument]
    if any cell intersects another bee's cells (the caller must resolve
    via {!reassign_all} first). *)

val unassign_bee : t -> bee:int -> unit
(** Removes the bee and releases all its cells. *)

val reassign_all : t -> from_bee:int -> to_bee:int -> unit
(** Moves every cell of [from_bee] to [to_bee] (bee merge) and removes
    [from_bee]. Both bees must belong to the same app. *)

val set_hive : t -> bee:int -> hive:int -> unit

val cells_on_hive : t -> hive:int -> int
(** Number of cells, wildcard cells included, owned by the bees on a hive
    (capacity accounting). The count is kept as bees gain, lose and move
    cells, so this is one lookup. *)

val check_invariant : t -> unit
(** Asserts no two bees own intersecting cells; raises [Failure]
    otherwise. Used by tests and debug builds. *)
