module SMap = Map.Make (String)

(* Pending writes keyed by [(dict, key)], ordered by [String.compare] on
   each part: the order the WAL record and replication ship them in. *)
module PMap = Map.Make (struct
  type t = string * string

  let compare (d1, k1) (d2, k2) =
    match String.compare d1 d2 with 0 -> String.compare k1 k2 | c -> c
end)

(* Each dictionary is a persistent map, so reading it in key order needs
   no sort and a transactional view needs no copy. *)
type t = { dicts : (string, Value.t SMap.t) Hashtbl.t }

type write =
  | Set of Value.t
  | Del

type tx = {
  base : t;
  mutable pending : write PMap.t;
  mutable finished : bool;
}

let create () = { dicts = Hashtbl.create 8 }

let dict_map t dict =
  match Hashtbl.find t.dicts dict with d -> d | exception Not_found -> SMap.empty

let get t ~dict ~key = SMap.find_opt key (dict_map t dict)

let keys t ~dict = List.map fst (SMap.bindings (dict_map t dict))

let sorted_dicts t =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.dicts [])

let entry_count t = Hashtbl.fold (fun _ d acc -> acc + SMap.cardinal d) t.dicts 0

let size_bytes t =
  Hashtbl.fold
    (fun dname d acc ->
      SMap.fold
        (fun k v acc -> acc + String.length dname + String.length k + Value.size v)
        d acc)
    t.dicts 0

let cells t =
  Hashtbl.fold
    (fun dname d acc -> SMap.fold (fun k _ acc -> Cell.Set.add (Cell.cell dname k) acc) d acc)
    t.dicts Cell.Set.empty

let begin_tx base = { base; pending = PMap.empty; finished = false }

let check_open tx = if tx.finished then invalid_arg "State: transaction already finished"

let tx_get tx ~dict ~key =
  check_open tx;
  match
    if PMap.is_empty tx.pending then None else PMap.find_opt (dict, key) tx.pending
  with
  | Some (Set v) -> Some v
  | Some Del -> None
  | None -> get tx.base ~dict ~key

let tx_mem tx ~dict ~key = tx_get tx ~dict ~key <> None

let tx_set tx ~dict ~key v =
  check_open tx;
  tx.pending <- PMap.add (dict, key) (Set v) tx.pending

let tx_del tx ~dict ~key =
  check_open tx;
  tx.pending <- PMap.add (dict, key) Del tx.pending

let apply d key = function Set v -> SMap.add key v d | Del -> SMap.remove key d

let tx_iter tx ~dict f =
  check_open tx;
  (* The view is immutable: writes [f] makes stay invisible to it. *)
  let view =
    PMap.fold
      (fun (dn, k) w d -> if String.equal dn dict then apply d k w else d)
      tx.pending (dict_map tx.base dict)
  in
  SMap.iter f view

let tx_pending tx =
  PMap.fold
    (fun (dict, key) w acc -> (dict, key, match w with Set v -> Some v | Del -> None) :: acc)
    tx.pending []
  |> List.rev

let commit tx =
  check_open tx;
  tx.finished <- true;
  if not (PMap.is_empty tx.pending) then
    PMap.iter
      (fun (dict, key) w ->
        Hashtbl.replace tx.base.dicts dict (apply (dict_map tx.base dict) key w))
      tx.pending

let abort tx =
  check_open tx;
  tx.finished <- true;
  tx.pending <- PMap.empty

let rollback tx =
  check_open tx;
  let discarded = PMap.cardinal tx.pending in
  abort tx;
  discarded

(* [Cell.Set] runs in dictionary order, a dictionary's wildcard before
   its keys and keys in [String.compare] order, so the entries come out
   sorted by [(dict, key)]. *)
let extract t cell_set =
  Cell.Set.fold
    (fun c acc ->
      let dname = c.Cell.dict in
      let d = dict_map t dname in
      match c.Cell.key with
      | Cell.All ->
        if SMap.is_empty d then acc
        else begin
          Hashtbl.replace t.dicts dname SMap.empty;
          SMap.fold (fun k v acc -> (dname, k, v) :: acc) d acc
        end
      | Cell.Key k -> (
        match SMap.find_opt k d with
        | None -> acc
        | Some v ->
          Hashtbl.replace t.dicts dname (SMap.remove k d);
          (dname, k, v) :: acc))
    cell_set []
  |> List.rev

let insert t entries =
  List.iter
    (fun (dname, k, v) -> Hashtbl.replace t.dicts dname (SMap.add k v (dict_map t dname)))
    entries

let snapshot t =
  List.concat_map
    (fun dname ->
      SMap.fold (fun k v acc -> (dname, k, v) :: acc) (Hashtbl.find t.dicts dname) []
      |> List.rev)
    (sorted_dicts t)

let restore entries =
  let t = create () in
  insert t entries;
  t
