(** The routing decision for one Cells leg of a message (Section 3,
    "Life of a Message"): which bee gets it, and what ownership change
    that takes.

    {!decide} is a pure function of the registry, the hive table, the
    lookup cache and the owner the platform looked up; it touches no
    bee, engine or transport. The platform applies the returned plan,
    which names no bee when the owner takes the leg: a plan for the
    common case is a constant and allocates nothing. {!least_loaded} is the one placement rule,
    also used by the drain evacuation. *)

type cache
(** Cached lock-service lookups, keyed by the origin hive, the app and
    the first mapped cell, held as its dict and key strings so that a
    [Mapping.Key] and the singleton [Cells] of its cell share an entry:
    the owner found and the cache's version when it was found. Looking a
    key up allocates nothing. *)

val create_cache : unit -> cache

val invalidate : cache -> unit
(** Starts a new version: every entry cached so far is stale. Called on
    each ownership change (a bee created, cells claimed, a merge, a
    migration landed) and each hive lifecycle transition. *)

(** {2 A leg's mapping}

    A Cells leg is mapped to a [Mapping.Key] or a non-empty
    [Mapping.Cells]; the functions below raise [Invalid_argument] for
    any other mapping. *)

val owner : Registry.t -> app:string -> Mapping.t -> int
(** The leg's owner as {!Registry.owner} of its cells defines it: one
    bee's id, {!Registry.no_owner} or {!Registry.several}. A [Key] is
    answered by {!Registry.key_owner}, with no set built. *)

val cells : Mapping.t -> Cell.Set.t
(** The leg's cells as a set. A [Key] builds its singleton here: only
    the rare plans (a new bee's cells, a claim, a merge) call this. *)

val remember : cache -> origin:int -> app:string -> Mapping.t -> owner:int -> unit
(** Records the owner a lookup for this mapped leg found at the cache's
    current version. A key already cached is refreshed in place, with no
    allocation. *)

type t =
  | Use  (** The single owner takes the leg: it owns every mapped cell. *)
  | Lookup
      (** The single owner owns every mapped cell but is remote, and the
          cache has no entry for it at its current version: one
          lock-service lookup, then the owner takes the leg. *)
  | Claim of Cell.Set.t
      (** The single owner claims these mapped cells, the ones it does
          not own yet, then takes the leg. *)
  | Create of int
      (** No owner: a new bee on this hive claims every mapped cell. The
          hive is the origin when it is placeable, else
          {!least_loaded}'s pick, else still the origin. *)
  | Merge of { winner : int; losers : int list }
      (** The mapped cells bridge several owners. The winner owns the
          most cells (ties to the lowest id) and is never on a crashed
          hive; bees on crashed hives may only lose. *)
  | Drop  (** Every owner is on a crashed hive. *)

val decide :
  Registry.t ->
  Hives.t ->
  cache ->
  capacity:int ->
  app:string ->
  origin:int ->
  owner:int ->
  Mapping.t ->
  t
(** [decide reg hives cache ~capacity ~app ~origin ~owner m] for a leg
    mapped to [m] by [app] on a message that originated on [origin],
    where [owner] is [owner reg ~app m]. [capacity] is the most cells
    one hive may host. [Use], [Lookup] and [Claim] are for [owner];
    ownership is exact membership ({!Registry.holds_key},
    {!Registry.holds_all}), so an owner that only intersects a mapped
    wildcard still claims it. A [Key] leg and the singleton [Cells] of
    its cell get equal plans, and neither plan allocates for [Use] or
    [Lookup]. *)

val has_room : Registry.t -> Hives.t -> capacity:int -> int -> cells:int -> bool
(** Hive [h] is placeable and can take [cells] more cells within
    [capacity], counting the cells it owns and those of migrations in
    flight toward it ({!Hives.inbound_cells}); also
    {!Platform.migrate_bee}'s admission test. *)

val least_loaded :
  Registry.t -> Hives.t -> capacity:int -> exclude:int -> cells:int -> int option
(** The hive other than [exclude] that {!has_room} for [cells] and owns
    the fewest cells (landed cells only), ties to the lowest id; [None]
    when no hive qualifies. *)
