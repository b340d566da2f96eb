type bee_info = {
  bee_id : int;
  bee_app : string;
  mutable bee_hive : int;
  mutable bee_cells : Cell.Set.t;
}

type app_index = {
  (* dict -> key -> owner bee *)
  by_key : (string, (string, int) Hashtbl.t) Hashtbl.t;
  (* dict -> wildcard owner *)
  by_wildcard : (string, int) Hashtbl.t;
}

type t = {
  infos : (int, bee_info) Hashtbl.t;
  apps : (string, app_index) Hashtbl.t;
  (* hive -> cells owned by the bees on it, kept as bee_hive and
     bee_cells change *)
  hive_cells : (int, int) Hashtbl.t;
}

let create () =
  { infos = Hashtbl.create 64; apps = Hashtbl.create 8; hive_cells = Hashtbl.create 8 }

let cells_on_hive t ~hive = Option.value ~default:0 (Hashtbl.find_opt t.hive_cells hive)

let add_cells t ~hive n =
  if n <> 0 then Hashtbl.replace t.hive_cells hive (cells_on_hive t ~hive + n)

(* Every write of [bee_cells] goes through here, so the count follows.
   A removed bee's record keeps its cells; only its count is dropped. *)
let set_cells t info cells =
  add_cells t ~hive:info.bee_hive (Cell.Set.cardinal cells - Cell.Set.cardinal info.bee_cells);
  info.bee_cells <- cells

let app_index t app =
  match Hashtbl.find_opt t.apps app with
  | Some idx -> idx
  | None ->
    let idx = { by_key = Hashtbl.create 64; by_wildcard = Hashtbl.create 4 } in
    Hashtbl.add t.apps app idx;
    idx

let register_bee t ~bee_id ~app ~hive =
  if Hashtbl.mem t.infos bee_id then invalid_arg "Registry.register_bee: id in use";
  let info = { bee_id; bee_app = app; bee_hive = hive; bee_cells = Cell.Set.empty } in
  Hashtbl.add t.infos bee_id info;
  info

let find_bee t id = Hashtbl.find_opt t.infos id
let bee t id = match find_bee t id with Some b -> b | None -> raise Not_found

let dict_keys idx dict =
  match Hashtbl.find_opt idx.by_key dict with
  | Some keys -> keys
  | None ->
    let keys = Hashtbl.create 16 in
    Hashtbl.add idx.by_key dict keys;
    keys

let key_owner idx dict k =
  match Hashtbl.find_opt idx.by_key dict with
  | Some keys -> Hashtbl.find_opt keys k
  | None -> None

let scan_owners idx cells =
  let found = Hashtbl.create 4 in
  let add b = Hashtbl.replace found b () in
  Cell.Set.iter
    (fun c ->
      let dict = c.Cell.dict in
      (* Any cell of [dict] intersects the wildcard owner of [dict]. *)
      (match Hashtbl.find_opt idx.by_wildcard dict with Some b -> add b | None -> ());
      match c.Cell.key with
      | Cell.Key k -> ( match key_owner idx dict k with Some b -> add b | None -> ())
      | Cell.All -> (
        (* A wildcard intersects every owned key of the dictionary. *)
        match Hashtbl.find_opt idx.by_key dict with
        | Some keys -> Hashtbl.iter (fun _ b -> add b) keys
        | None -> ()))
    cells;
  List.sort Int.compare (Hashtbl.fold (fun b () acc -> b :: acc) found [])

let owners t ~app cells =
  let idx = app_index t app in
  if Cell.Set.cardinal cells <> 1 then scan_owners idx cells
  else
    match Cell.Set.choose cells with
    | { Cell.dict; key = Cell.Key k } -> (
      (* One keyed cell, the usual routed mapping: its owners are at most
         the wildcard owner and the key owner, found without a table. *)
      match (Hashtbl.find_opt idx.by_wildcard dict, key_owner idx dict k) with
      | None, None -> []
      | Some b, None | None, Some b -> [ b ]
      | Some a, Some b -> if a = b then [ a ] else [ min a b; max a b ])
    | { Cell.key = Cell.All; _ } -> scan_owners idx cells

let owners_of_dict t ~app ~dict =
  owners t ~app (Cell.Set.singleton (Cell.whole dict))

let assign t ~bee cells =
  let info = Hashtbl.find t.infos bee in
  let idx = app_index t info.bee_app in
  (* Refuse assignment that would break single-ownership. *)
  let conflicting =
    owners t ~app:info.bee_app cells |> List.filter (fun b -> b <> bee)
  in
  if conflicting <> [] then
    invalid_arg
      (Printf.sprintf "Registry.assign: cells conflict with bee %d"
         (List.hd conflicting));
  Cell.Set.iter
    (fun c ->
      match c.Cell.key with
      | Cell.Key k -> Hashtbl.replace (dict_keys idx c.Cell.dict) k bee
      | Cell.All -> Hashtbl.replace idx.by_wildcard c.Cell.dict bee)
    cells;
  set_cells t info (Cell.Set.union info.bee_cells cells)

let release_cells idx bee cells =
  Cell.Set.iter
    (fun c ->
      match c.Cell.key with
      | Cell.Key k -> (
        match Hashtbl.find_opt idx.by_key c.Cell.dict with
        | Some keys when Hashtbl.find_opt keys k = Some bee -> Hashtbl.remove keys k
        | Some _ | None -> ())
      | Cell.All ->
        if Hashtbl.find_opt idx.by_wildcard c.Cell.dict = Some bee then
          Hashtbl.remove idx.by_wildcard c.Cell.dict)
    cells

let unassign_bee t ~bee =
  match Hashtbl.find_opt t.infos bee with
  | None -> ()
  | Some info ->
    release_cells (app_index t info.bee_app) bee info.bee_cells;
    add_cells t ~hive:info.bee_hive (- Cell.Set.cardinal info.bee_cells);
    Hashtbl.remove t.infos bee

let reassign_all t ~from_bee ~to_bee =
  let src = Hashtbl.find t.infos from_bee in
  let dst = Hashtbl.find t.infos to_bee in
  if not (String.equal src.bee_app dst.bee_app) then
    invalid_arg "Registry.reassign_all: apps differ";
  let idx = app_index t src.bee_app in
  let moved = src.bee_cells in
  release_cells idx from_bee moved;
  add_cells t ~hive:src.bee_hive (- Cell.Set.cardinal moved);
  Hashtbl.remove t.infos from_bee;
  Cell.Set.iter
    (fun c ->
      match c.Cell.key with
      | Cell.Key k -> Hashtbl.replace (dict_keys idx c.Cell.dict) k to_bee
      | Cell.All -> Hashtbl.replace idx.by_wildcard c.Cell.dict to_bee)
    moved;
  set_cells t dst (Cell.Set.union dst.bee_cells moved)

let set_hive t ~bee ~hive =
  let info = Hashtbl.find t.infos bee in
  let n = Cell.Set.cardinal info.bee_cells in
  add_cells t ~hive:info.bee_hive (-n);
  add_cells t ~hive n;
  info.bee_hive <- hive

let bees t =
  Hashtbl.fold (fun _ b acc -> b :: acc) t.infos []
  |> List.sort (fun a b -> Int.compare a.bee_id b.bee_id)


let check_invariant t =
  let all = bees t in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if
            j > i
            && String.equal a.bee_app b.bee_app
            && Cell.Set.intersects a.bee_cells b.bee_cells
          then
            failwith
              (Printf.sprintf "Registry invariant violated: bees %d and %d overlap"
                 a.bee_id b.bee_id))
        all)
    all
