(* The lookup cache is keyed by (origin hive, app, first mapped cell).
   A lookup fills the cache's one probe key in place instead of building
   a key per message; only [remember] of a new key allocates one, and
   remembering a known key refreshes its entry in place. *)
type key = { mutable k_origin : int; mutable k_app : string; mutable k_cell : Cell.t }

module Keys = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.k_origin = b.k_origin && String.equal a.k_app b.k_app && Cell.compare a.k_cell b.k_cell = 0

  let hash = Hashtbl.hash
end)

type found = { mutable owner : int; mutable at_version : int }

(* [version] counts the registry and hive changes seen so far: an entry
   found at an older version is stale. *)
type cache = { found : found Keys.t; probe : key; mutable version : int }

let create_cache () =
  {
    found = Keys.create 1024;
    probe = { k_origin = 0; k_app = ""; k_cell = Cell.whole "" };
    version = 0;
  }

let invalidate cache = cache.version <- cache.version + 1

let probe cache ~origin ~app cs =
  let k = cache.probe in
  k.k_origin <- origin;
  k.k_app <- app;
  k.k_cell <- Cell.Set.min_elt cs;
  k

let remember cache ~origin ~app cs ~owner =
  match Keys.find cache.found (probe cache ~origin ~app cs) with
  | f ->
    f.owner <- owner;
    f.at_version <- cache.version
  | exception Not_found ->
    Keys.add cache.found
      { k_origin = origin; k_app = app; k_cell = Cell.Set.min_elt cs }
      { owner; at_version = cache.version }

(* Whether the cache lacks [bee] as the owner found at its version. *)
let stale cache ~origin ~app cs ~bee =
  match Keys.find cache.found (probe cache ~origin ~app cs) with
  | f -> f.owner <> bee || f.at_version <> cache.version
  | exception Not_found -> true

type t =
  | Use
  | Lookup
  | Claim of Cell.Set.t
  | Create of int
  | Merge of { winner : int; losers : int list }
  | Drop

(* Whether hive [h] may take [cells] more cells: also migration
   admission. Cells still in flight toward [h] count, so moves started
   in one step cannot overfill it together. *)
let has_room reg hives ~capacity h ~cells =
  Hives.placeable hives h
  && Registry.cells_on_hive reg ~hive:h + Hives.inbound_cells hives h + cells <= capacity

(* The one placement rule, shared by [decide] and the drain evacuation:
   of the hives other than [exclude] with room for [cells], the one
   owning the fewest cells, ties to the lowest id. *)
let least_loaded reg hives ~capacity ~exclude ~cells =
  let best = ref (-1) and best_cells = ref max_int in
  for h = 0 to Hives.count hives - 1 do
    if h <> exclude && has_room reg hives ~capacity h ~cells then begin
      let c = Registry.cells_on_hive reg ~hive:h in
      if c < !best_cells then begin
        best := h;
        best_cells := c
      end
    end
  done;
  if !best >= 0 then Some !best else None

(* Normally the origin hive (the locality heuristic of the paper); a
   draining or decommissioned origin redirects to the least-loaded
   placeable hive so no new cells anchor on a hive that is leaving. *)
let placement_hive reg hives ~capacity ~origin cs =
  if Hives.placeable hives origin then origin
  else
    Option.value ~default:origin
      (least_loaded reg hives ~capacity ~exclude:origin ~cells:(Cell.Set.cardinal cs))

(* Exact membership, not intersection: a wildcard that merely intersects
   owned keys must still be claimed so that future keys of the dictionary
   keep collocating with the owner. *)
let unowned reg ~bee cs =
  let owned = (Registry.bee reg bee).Registry.bee_cells in
  if Cell.Set.subset cs owned then Cell.Set.empty
  else Cell.Set.filter (fun c -> not (Cell.Set.mem c owned)) cs

(* The mapped cells bridge several owners. A bee on a crashed hive must
   never win a merge: its process is gone, and the restart-time revival
   replaces its state with its durable cut, so whatever the merge folded
   into it in memory would silently vanish. Crashed owners
   may only be losers (folded from their durable cut); if every owner is
   crashed, their cells are unavailable until restart revives them and
   the message is dropped like any other send to a dead hive. *)
let merge reg hives ~app cs =
  let info b = Registry.bee reg b in
  let up, crashed =
    List.partition
      (fun b -> not (Hives.crashed hives (info b).Registry.bee_hive))
      (Registry.owners reg ~app cs)
  in
  let cells b = Cell.Set.cardinal (info b).Registry.bee_cells in
  let by_size x y = match Int.compare (cells y) (cells x) with 0 -> Int.compare x y | c -> c in
  match List.sort by_size up with
  | [] -> Drop
  | winner :: rest -> Merge { winner; losers = rest @ crashed }

let decide reg hives cache ~capacity ~app ~origin ~owner cs =
  if owner = Registry.no_owner then Create (placement_hive reg hives ~capacity ~origin cs)
  else if owner = Registry.several then merge reg hives ~app cs
  else begin
    let claim = unowned reg ~bee:owner cs in
    if not (Cell.Set.is_empty claim) then Claim claim
    else if
      (Registry.bee reg owner).Registry.bee_hive <> origin
      && stale cache ~origin ~app cs ~bee:owner
    then Lookup
    else Use
  end
