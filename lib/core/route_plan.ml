(* The lookup cache is keyed by (origin hive, app, first mapped cell),
   the cell as its dict and key strings plus whether it is a wildcard,
   so that a [Mapping.Key] and the singleton set of its cell share one
   entry. A lookup fills the cache's one probe key in place instead of
   building a key per message; only [remember] of a new key allocates
   one, and remembering a known key refreshes its entry in place. *)
type key = {
  mutable k_origin : int;
  mutable k_app : string;
  mutable k_dict : string;
  mutable k_key : string;  (* "" for a wildcard *)
  mutable k_whole : bool;
}

module Keys = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.k_origin = b.k_origin && String.equal a.k_app b.k_app && String.equal a.k_dict b.k_dict
    && String.equal a.k_key b.k_key && a.k_whole = b.k_whole

  let hash = Hashtbl.hash
end)

type found = { mutable owner : int; mutable at_version : int }

(* [version] counts the registry and hive changes seen so far: an entry
   found at an older version is stale. *)
type cache = { found : found Keys.t; probe : key; mutable version : int }

let create_cache () =
  {
    found = Keys.create 1024;
    probe = { k_origin = 0; k_app = ""; k_dict = ""; k_key = ""; k_whole = false };
    version = 0;
  }

let invalidate cache = cache.version <- cache.version + 1

let not_a_leg () = invalid_arg "Route_plan: not a Key or Cells mapping"

let probe cache ~origin ~app (m : Mapping.t) =
  let k = cache.probe in
  k.k_origin <- origin;
  k.k_app <- app;
  (match m with
  | Mapping.Key { dict; key } ->
    k.k_dict <- dict;
    k.k_key <- key;
    k.k_whole <- false
  | Mapping.Cells cs -> (
    let c = Cell.Set.min_elt cs in
    k.k_dict <- c.Cell.dict;
    match c.Cell.key with
    | Cell.Key key ->
      k.k_key <- key;
      k.k_whole <- false
    | Cell.All ->
      k.k_key <- "";
      k.k_whole <- true)
  | Mapping.Foreach _ | Mapping.Local | Mapping.Drop -> not_a_leg ());
  k

let remember cache ~origin ~app m ~owner =
  let k = probe cache ~origin ~app m in
  match Keys.find cache.found k with
  | f ->
    f.owner <- owner;
    f.at_version <- cache.version
  | exception Not_found ->
    Keys.add cache.found { k with k_origin = origin } { owner; at_version = cache.version }

(* Whether the cache lacks [bee] as the owner found at its version. *)
let stale cache ~origin ~app m ~bee =
  match Keys.find cache.found (probe cache ~origin ~app m) with
  | f -> f.owner <> bee || f.at_version <> cache.version
  | exception Not_found -> true

(* What a leg's mapping asks of the registry. A [Key] is answered from
   the per-key index, with no set built; only [cells] builds its
   singleton, for the rare plans that need a set. *)
let owner reg ~app (m : Mapping.t) =
  match m with
  | Mapping.Key { dict; key } -> Registry.key_owner reg ~app ~dict ~key
  | Mapping.Cells cs -> Registry.owner reg ~app cs
  | Mapping.Foreach _ | Mapping.Local | Mapping.Drop -> not_a_leg ()

let cells (m : Mapping.t) =
  match m with
  | Mapping.Key { dict; key } -> Cell.Set.singleton (Cell.cell dict key)
  | Mapping.Cells cs -> cs
  | Mapping.Foreach _ | Mapping.Local | Mapping.Drop -> not_a_leg ()

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
let placement_hive reg hives ~capacity ~origin (m : Mapping.t) =
  if Hives.placeable hives origin then origin
  else
    let cells = match m with Mapping.Key _ -> 1 | m -> Cell.Set.cardinal (cells m) in
    Option.value ~default:origin (least_loaded reg hives ~capacity ~exclude:origin ~cells)

(* Exact membership, not intersection: a wildcard that merely intersects
   owned keys must still be claimed so that future keys of the dictionary
   keep collocating with the owner. The registry's index decides it for
   both forms, cell by cell. *)
let holds reg ~app ~bee (m : Mapping.t) =
  match m with
  | Mapping.Key { dict; key } -> Registry.holds_key reg ~app ~bee ~dict ~key
  | Mapping.Cells cs -> Registry.holds_all reg ~app ~bee cs
  | Mapping.Foreach _ | Mapping.Local | Mapping.Drop -> not_a_leg ()

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

let decide reg hives cache ~capacity ~app ~origin ~owner m =
  if owner = Registry.no_owner then Create (placement_hive reg hives ~capacity ~origin m)
  else if owner = Registry.several then merge reg hives ~app (cells m)
  else if not (holds reg ~app ~bee:owner m) then
    Claim (Registry.unheld reg ~app ~bee:owner (cells m))
  else if
    (Registry.bee reg owner).Registry.bee_hive <> origin
    && stale cache ~origin ~app m ~bee:owner
  then Lookup
  else Use
