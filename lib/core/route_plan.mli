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
    the first mapped cell: the owner found and the cache's version when
    it was found. Looking a key up allocates nothing. *)

val create_cache : unit -> cache

val invalidate : cache -> unit
(** Starts a new version: every entry cached so far is stale. Called on
    each ownership change (a bee created, cells claimed, a merge, a
    migration landed) and each hive lifecycle transition. *)

val remember : cache -> origin:int -> app:string -> Cell.Set.t -> owner:int -> unit
(** Records the owner a lookup for these mapped cells found at the
    cache's current version. A key already cached is refreshed in place,
    with no allocation. *)

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
  Cell.Set.t ->
  t
(** [decide reg hives cache ~capacity ~app ~origin ~owner cells]
    for a non-empty [cells] mapped by [app] on a message that originated
    on [origin], where [owner] is [Registry.owner reg ~app cells]: one
    bee's id, {!Registry.no_owner} or {!Registry.several}. [capacity] is
    the most cells one hive may host. [Use], [Lookup] and [Claim] are
    for [owner]. *)

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

val unowned : Registry.t -> bee:int -> Cell.Set.t -> Cell.Set.t
(** The cells of the set the bee does not own itself. *)
