type t = { dicts : (string, (string, Value.t) Hashtbl.t) Hashtbl.t }

type write =
  | Set of Value.t
  | Del

type tx = {
  base : t;
  pending : (string * string, write) Hashtbl.t;
  mutable finished : bool;
}

let create () = { dicts = Hashtbl.create 8 }

let find_dict t dict = Hashtbl.find_opt t.dicts dict

let get_dict t dict =
  match find_dict t dict with
  | Some d -> d
  | None ->
    let d = Hashtbl.create 16 in
    Hashtbl.add t.dicts dict d;
    d

let get t ~dict ~key =
  match find_dict t dict with None -> None | Some d -> Hashtbl.find_opt d key

let mem t ~dict ~key = get t ~dict ~key <> None

let iter t ~dict f =
  match find_dict t dict with
  | None -> ()
  | Some d ->
    (* Sort keys so iteration order is deterministic. *)
    let ks = Hashtbl.fold (fun k _ acc -> k :: acc) d [] in
    List.iter (fun k -> f k (Hashtbl.find d k)) (List.sort String.compare ks)

let keys t ~dict =
  match find_dict t dict with
  | None -> []
  | Some d -> List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) d [])

let dicts t =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.dicts [])

let entry_count t = Hashtbl.fold (fun _ d acc -> acc + Hashtbl.length d) t.dicts 0

let size_bytes t =
  Hashtbl.fold
    (fun dname d acc ->
      Hashtbl.fold
        (fun k v acc -> acc + String.length dname + String.length k + Value.size v)
        d acc)
    t.dicts 0

let cells t =
  Hashtbl.fold
    (fun dname d acc ->
      Hashtbl.fold (fun k _ acc -> Cell.Set.add (Cell.cell dname k) acc) d acc)
    t.dicts Cell.Set.empty

let begin_tx base = { base; pending = Hashtbl.create 8; finished = false }

let check_open tx = if tx.finished then invalid_arg "State: transaction already finished"

let tx_get tx ~dict ~key =
  check_open tx;
  match Hashtbl.find_opt tx.pending (dict, key) with
  | Some (Set v) -> Some v
  | Some Del -> None
  | None -> get tx.base ~dict ~key

let tx_mem tx ~dict ~key = tx_get tx ~dict ~key <> None

let tx_set tx ~dict ~key v =
  check_open tx;
  Hashtbl.replace tx.pending (dict, key) (Set v)

let tx_del tx ~dict ~key =
  check_open tx;
  Hashtbl.replace tx.pending (dict, key) Del

let tx_iter tx ~dict f =
  check_open tx;
  (* Collect the transactional view, then iterate in key order. *)
  let view = Hashtbl.create 16 in
  (match find_dict tx.base dict with
  | None -> ()
  | Some d -> Hashtbl.iter (fun k v -> Hashtbl.replace view k (Some v)) d);
  Hashtbl.iter
    (fun (dn, k) w ->
      if String.equal dn dict then
        match w with
        | Set v -> Hashtbl.replace view k (Some v)
        | Del -> Hashtbl.replace view k None)
    tx.pending;
  let ks = Hashtbl.fold (fun k _ acc -> k :: acc) view [] in
  List.iter
    (fun k -> match Hashtbl.find view k with Some v -> f k v | None -> ())
    (List.sort String.compare ks)

let tx_pending tx =
  Hashtbl.fold
    (fun (dict, key) w acc ->
      (dict, key, match w with Set v -> Some v | Del -> None) :: acc)
    tx.pending []
  |> List.sort (fun (d1, k1, _) (d2, k2, _) ->
         match String.compare d1 d2 with 0 -> String.compare k1 k2 | c -> c)

let commit tx =
  check_open tx;
  tx.finished <- true;
  Hashtbl.iter
    (fun (dict, key) w ->
      let d = get_dict tx.base dict in
      match w with
      | Set v -> Hashtbl.replace d key v
      | Del -> Hashtbl.remove d key)
    tx.pending

let abort tx =
  check_open tx;
  tx.finished <- true;
  Hashtbl.reset tx.pending

let rollback tx =
  check_open tx;
  let discarded = Hashtbl.length tx.pending in
  tx.finished <- true;
  Hashtbl.reset tx.pending;
  discarded

let extract t cell_set =
  let selected = ref [] in
  Hashtbl.iter
    (fun dname d ->
      Hashtbl.iter
        (fun k v ->
          let c = Cell.cell dname k in
          if Cell.Set.exists (fun sc -> Cell.intersects sc c) cell_set then
            selected := (dname, k, v) :: !selected)
        d)
    t.dicts;
  let entries =
    List.sort
      (fun (d1, k1, _) (d2, k2, _) ->
        match String.compare d1 d2 with 0 -> String.compare k1 k2 | c -> c)
      !selected
  in
  List.iter
    (fun (dname, k, _) ->
      match find_dict t dname with
      | Some d -> Hashtbl.remove d k
      | None -> ())
    entries;
  entries

let insert t entries =
  List.iter (fun (dname, k, v) -> Hashtbl.replace (get_dict t dname) k v) entries

let snapshot t =
  let acc = ref [] in
  Hashtbl.iter
    (fun dname d -> Hashtbl.iter (fun k v -> acc := (dname, k, v) :: !acc) d)
    t.dicts;
  List.sort
    (fun (d1, k1, _) (d2, k2, _) ->
      match String.compare d1 d2 with 0 -> String.compare k1 k2 | c -> c)
    !acc

let restore entries =
  let t = create () in
  insert t entries;
  t
