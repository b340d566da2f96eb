(** Cells: the unit of state distribution.

    A cell is one key of one state dictionary: [(dict, key)] (Section 3,
    "Hives and Cells"). A handler that accesses a whole dictionary maps to
    the wildcard cell [(dict, All)], which intersects every key of that
    dictionary — this is how centralized functions force collocation. *)

type key =
  | Key of string
  | All  (** the whole dictionary *)

type t = { dict : string; key : key }

val cell : string -> string -> t
(** [cell dict k] is the cell for key [k] of dictionary [dict]. *)

val whole : string -> t
(** [whole dict] is the wildcard cell of [dict]. *)

val compare : t -> t -> int
val is_wildcard : t -> bool

val intersects : t -> t -> bool
(** Two cells intersect when they denote overlapping state: equal cells,
    or a wildcard against any cell of the same dictionary. *)

val pp : Format.formatter -> t -> unit

module Set : sig
  include Set.S with type elt = t

  val intersects : t -> t -> bool
  (** Set-level intersection under {!intersects} semantics (quadratic in
      the number of wildcards, linear otherwise). *)

  val pp : Format.formatter -> t -> unit
end
