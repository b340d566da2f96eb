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

(* The scratch a walk over a cell set folds through it, so that the
   walk's step is a top-level function and it builds no closure: the
   app's index, and for [holds_all] the bee asked about and whether
   every cell walked so far is held, for [owner] the owner so far. *)
type walk = {
  mutable w_idx : app_index;
  mutable w_bee : int;
  mutable w_all : bool;
  mutable w_owner : int;
}

type t = {
  infos : (int, bee_info) Hashtbl.t;
  apps : (string, app_index) Hashtbl.t;
  (* hive -> cells owned by the bees on it, kept as bee_hive and
     bee_cells change *)
  hive_cells : (int, int) Hashtbl.t;
  (* [owners_of_dict]'s scratch, all clear between calls: byte [b] is
     set while bee [b] is found to own a key, and [lo] and [hi] bound
     the ids set. *)
  mutable marks : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  walk : walk;
}

let create () =
  {
    infos = Hashtbl.create 64;
    apps = Hashtbl.create 8;
    hive_cells = Hashtbl.create 8;
    marks = Bytes.make 64 '\000';
    lo = max_int;
    hi = -1;
    walk =
      {
        w_idx = { by_key = Hashtbl.create 1; by_wildcard = Hashtbl.create 1 };
        w_bee = -1;
        w_all = true;
        w_owner = -1;
      };
  }

let cells_on_hive t ~hive =
  match Hashtbl.find t.hive_cells hive with n -> n | exception Not_found -> 0

let add_cells t ~hive n =
  if n <> 0 then Hashtbl.replace t.hive_cells hive (cells_on_hive t ~hive + n)

(* Every write of [bee_cells] goes through here, so the count follows.
   A removed bee's record keeps its cells; only its count is dropped. *)
let set_cells t info cells =
  add_cells t ~hive:info.bee_hive (Cell.Set.cardinal cells - Cell.Set.cardinal info.bee_cells);
  info.bee_cells <- cells

(* Lookups below use [Hashtbl.find] and [Not_found], not [find_opt]:
   every message's routing goes through them, and a [Some] returned
   across modules is an allocation. *)
let app_index t app =
  match Hashtbl.find t.apps app with
  | idx -> idx
  | exception Not_found ->
    let idx = { by_key = Hashtbl.create 64; by_wildcard = Hashtbl.create 4 } in
    Hashtbl.add t.apps app idx;
    idx

let register_bee t ~bee_id ~app ~hive =
  if Hashtbl.mem t.infos bee_id then invalid_arg "Registry.register_bee: id in use";
  let info = { bee_id; bee_app = app; bee_hive = hive; bee_cells = Cell.Set.empty } in
  Hashtbl.add t.infos bee_id info;
  info

let find_bee t id = Hashtbl.find_opt t.infos id
let bee t id = Hashtbl.find t.infos id

let dict_keys idx dict =
  match Hashtbl.find idx.by_key dict with
  | keys -> keys
  | exception Not_found ->
    let keys = Hashtbl.create 16 in
    Hashtbl.add idx.by_key dict keys;
    keys

let no_owner = -1
let several = -2

let wildcard_owner idx dict =
  match Hashtbl.find idx.by_wildcard dict with b -> b | exception Not_found -> no_owner

let key_entry idx dict k =
  match Hashtbl.find (Hashtbl.find idx.by_key dict) k with
  | b -> b
  | exception Not_found -> no_owner

(* The owner of two disjoint parts of a cell set, from each part's. *)
let join a b = if a = no_owner || a = b then b else if b = no_owner then a else several

(* A keyed cell's owners are at most its dict's wildcard owner and its
   key's owner: the one rule for a keyed cell, whether it was mapped as
   a [Mapping.Key] or inside a set. *)
let keyed_owner idx dict k = join (wildcard_owner idx dict) (key_entry idx dict k)

(* A wildcard's owner, if any, is its dict's only owner: single
   ownership keeps every key of the dict away from other bees. Without
   one, every key owner of the dict intersects it. *)
let cell_owner idx (c : Cell.t) =
  match c.Cell.key with
  | Cell.Key k -> keyed_owner idx c.Cell.dict k
  | Cell.All -> (
    let w = wildcard_owner idx c.Cell.dict in
    if w <> no_owner then w
    else
      match Hashtbl.find idx.by_key c.Cell.dict with
      | keys -> Hashtbl.fold (fun _ b acc -> join acc b) keys no_owner
      | exception Not_found -> no_owner)

let owner_step c w =
  w.w_owner <- join w.w_owner (cell_owner w.w_idx c);
  w

let set_owner t idx cells =
  let w = t.walk in
  w.w_idx <- idx;
  w.w_owner <- no_owner;
  (Cell.Set.fold owner_step cells w).w_owner

let owner t ~app cells = set_owner t (app_index t app) cells
let key_owner t ~app ~dict ~key = keyed_owner (app_index t app) dict key

(* Exact membership, by the index: a keyed cell is held when [by_key]
   names the bee, a wildcard when [by_wildcard] does. A key under the
   bee's wildcard, or a wildcard over its keys, is not held. The keyed
   rule is [key_held] alone, for a [Mapping.Key] and a set's cell. *)
let key_held idx ~bee dict k = key_entry idx dict k = bee

let holds_cell idx ~bee (c : Cell.t) =
  match c.Cell.key with
  | Cell.Key k -> key_held idx ~bee c.Cell.dict k
  | Cell.All -> wildcard_owner idx c.Cell.dict = bee

let holds_key t ~app ~bee ~dict ~key = key_held (app_index t app) ~bee dict key

let held_step c w =
  if w.w_all && not (holds_cell w.w_idx ~bee:w.w_bee c) then w.w_all <- false;
  w

let holds_all t ~app ~bee cells =
  let w = t.walk in
  w.w_idx <- app_index t app;
  w.w_bee <- bee;
  w.w_all <- true;
  (Cell.Set.fold held_step cells w).w_all

let unheld t ~app ~bee cells =
  let idx = app_index t app in
  Cell.Set.filter (fun c -> not (holds_cell idx ~bee c)) cells

let scan_owners idx cells =
  let found = Hashtbl.create 4 in
  let add b = if b <> no_owner then Hashtbl.replace found b () in
  Cell.Set.iter
    (fun c ->
      let dict = c.Cell.dict in
      (* Any cell of [dict] intersects the wildcard owner of [dict]. *)
      add (wildcard_owner idx dict);
      match c.Cell.key with
      | Cell.Key k -> add (key_entry idx dict k)
      | Cell.All -> (
        (* A wildcard intersects every owned key of the dictionary. *)
        match Hashtbl.find idx.by_key dict with
        | keys -> Hashtbl.iter (fun _ b -> add b) keys
        | exception Not_found -> ()))
    cells;
  List.sort Int.compare (Hashtbl.fold (fun b () acc -> b :: acc) found [])

let owners t ~app cells =
  let idx = app_index t app in
  let o = set_owner t idx cells in
  if o = several then scan_owners idx cells else if o = no_owner then [] else [ o ]

(* Marks bee [b], the owner of a key, growing the map to hold its id. *)
let mark t _key b =
  let n = Bytes.length t.marks in
  if b >= n then begin
    let grown = Bytes.make (max (b + 1) (2 * n)) '\000' in
    Bytes.blit t.marks 0 grown 0 n;
    t.marks <- grown
  end;
  Bytes.unsafe_set t.marks b '\001';
  if b < t.lo then t.lo <- b;
  if b > t.hi then t.hi <- b

(* The ids marked from [lo] up to [b], ascending, consed onto [acc];
   clears the marks it reads. *)
let rec marked t b acc =
  if b < t.lo then acc
  else if Bytes.unsafe_get t.marks b = '\000' then marked t (b - 1) acc
  else begin
    Bytes.unsafe_set t.marks b '\000';
    marked t (b - 1) (b :: acc)
  end

(* A wildcard owner is its dict's only owner (single ownership); without
   one, the key owners are marked by id and read back in id order, with
   no table and no sort. *)
let owners_of_dict t ~app ~dict =
  let idx = app_index t app in
  let w = wildcard_owner idx dict in
  if w <> no_owner then [ w ]
  else
    match Hashtbl.find idx.by_key dict with
    | exception Not_found -> []
    | keys ->
      Hashtbl.iter (mark t) keys;
      let owners = marked t t.hi [] in
      t.lo <- max_int;
      t.hi <- -1;
      owners

let assign t ~bee cells =
  let info = Hashtbl.find t.infos bee in
  let idx = app_index t info.bee_app in
  (* Refuse assignment that would break single-ownership. *)
  let o = set_owner t idx cells in
  if o <> no_owner && o <> bee then
    invalid_arg
      (Printf.sprintf "Registry.assign: cells conflict with bee %d"
         (List.find (fun b -> b <> bee) (scan_owners idx cells)));
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
      | Cell.Key k ->
        if key_entry idx c.Cell.dict k = bee then
          Hashtbl.remove (Hashtbl.find idx.by_key c.Cell.dict) k
      | Cell.All ->
        if wildcard_owner idx c.Cell.dict = bee then Hashtbl.remove idx.by_wildcard c.Cell.dict)
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
