type cache = (int * string * Cell.t, int * int) Hashtbl.t

type t =
  | Create of int
  | Use of { bee : int; claim : Cell.Set.t; lookup : bool }
  | Merge of { winner : int; losers : int list }
  | Drop

(* Normally the origin hive (the locality heuristic of the paper); a
   draining or decommissioned origin redirects to the least-loaded
   placeable hive so no new cells anchor on a hive that is leaving. *)
let placement_hive reg hives ~origin =
  if Hives.placeable hives origin then origin
  else begin
    let best = ref (-1) and best_cells = ref max_int in
    for h = 0 to Hives.count hives - 1 do
      if Hives.placeable hives h then begin
        let c = Registry.cells_on_hive reg ~hive:h in
        if c < !best_cells then begin
          best := h;
          best_cells := c
        end
      end
    done;
    if !best >= 0 then !best else origin
  end

(* Exact membership, not intersection: a wildcard that merely intersects
   owned keys must still be claimed so that future keys of the dictionary
   keep collocating with the owner. *)
let unowned reg ~bee cs =
  let owned = (Registry.bee reg bee).Registry.bee_cells in
  if Cell.Set.subset cs owned then Cell.Set.empty
  else Cell.Set.filter (fun c -> not (Cell.Set.mem c owned)) cs

let cache_key ~origin ~app cs = (origin, app, Cell.Set.min_elt cs)

let decide reg hives (cache : cache) ~version ~app ~origin cs =
  match Registry.owners reg ~app cs with
  | [] -> Create (placement_hive reg hives ~origin)
  | [ bee ] ->
    let claim = unowned reg ~bee cs in
    let lookup =
      Cell.Set.is_empty claim
      && (Registry.bee reg bee).Registry.bee_hive <> origin
      &&
      match Hashtbl.find_opt cache (cache_key ~origin ~app cs) with
      | Some (owner, v) -> owner <> bee || v <> version
      | None -> true
    in
    Use { bee; claim; lookup }
  | owners -> (
    (* A bee on a crashed hive must never win a merge: merging would flip
       it `Paused -> `Active, so the restart-time revival (which only
       looks at `Crashed bees) would skip it and its volatile state —
       including writes whose group-commit batch died with the hive —
       would silently survive the crash. Crashed owners may only be
       losers (folded from their durable cut); if every owner is crashed,
       their cells are unavailable until restart revives them and the
       message is dropped like any other send to a dead hive. *)
    let info b = Registry.bee reg b in
    let up, crashed =
      List.partition (fun b -> not (Hives.crashed hives (info b).Registry.bee_hive)) owners
    in
    let cells b = Cell.Set.cardinal (info b).Registry.bee_cells in
    let by_size x y = match Int.compare (cells y) (cells x) with 0 -> Int.compare x y | c -> c in
    match List.sort by_size up with
    | [] -> Drop
    | winner :: rest -> Merge { winner; losers = rest @ crashed })
