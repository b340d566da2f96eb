module SMap = Map.Make (String)

(* Each dictionary is a persistent map from key to a mutable cell: keys
   stay in [String.compare] order and a view needs no copy, while a
   commit that overwrites a key assigns its cell. A cell holds the
   [Some v] its last committed write carried, so [tx_get] hands that
   option out as it is; a delete removes the key, so no cell holds
   [None]. [viewing] counts the [tx_iter] calls running over this state,
   whose views read the cells in place. *)
type t = {
  dicts : (string, Value.t option ref SMap.t) Hashtbl.t;
  mutable viewing : int;
}

(* One pending write, [(dict, key, write)]; [write = None] deletes. It
   is the very tuple the WAL record and replication list, so an
   overwrite in the same transaction replaces it rather than editing
   it. *)
type pending = string * string * Value.t option

(* The pending writes sit in [writes.(0 .. n-1)], sorted by [(dict, key)]
   under [String.compare]: the order the WAL record and replication ship
   them in. *)
type tx = {
  mutable base : t;
  mutable writes : pending array;
  mutable n : int;
  mutable finished : bool;
}

let create () = { dicts = Hashtbl.create 8; viewing = 0 }

let dict_map t dict =
  match Hashtbl.find t.dicts dict with d -> d | exception Not_found -> SMap.empty

let sorted_dicts t =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.dicts [])

(* [f k v] on a committed cell of key [k]; [fold_cells] folds it over a
   dictionary in key order. *)
let visit f k c = match !c with Some v -> f k v | None -> ()

let fold_cells f d acc =
  SMap.fold (fun k c acc -> match !c with Some v -> f k v acc | None -> acc) d acc

let size_bytes t =
  Hashtbl.fold
    (fun dname d acc ->
      fold_cells
        (fun k v acc -> acc + String.length dname + String.length k + Value.size v)
        d acc)
    t.dicts 0

(* Fills the unused tail of the pending array. *)
let no_write = ("", "", None)

(* A finished transaction keeps no write alive. *)
let finish tx =
  tx.finished <- true;
  Array.fill tx.writes 0 tx.n no_write;
  tx.n <- 0

let reopen tx base =
  finish tx;
  tx.base <- base;
  tx.finished <- false

let begin_tx base =
  let tx = { base; writes = [||]; n = 0; finished = true } in
  reopen tx base;
  tx

let check_open tx = if tx.finished then invalid_arg "State: transaction already finished"

(* The first index in [writes.(lo .. hi-1)] whose [(dict, key)] is not
   below the given one. A top-level function, so a lookup builds no
   closure. *)
let rec lower_bound writes ~dict ~key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    let pd, pk, _ = writes.(mid) in
    let c = match String.compare pd dict with 0 -> String.compare pk key | c -> c in
    if c < 0 then lower_bound writes ~dict ~key (mid + 1) hi
    else lower_bound writes ~dict ~key lo mid

let holds tx i ~dict ~key =
  i < tx.n
  &&
  let pd, pk, _ = tx.writes.(i) in
  String.equal pk key && String.equal pd dict

let tx_get tx ~dict ~key =
  check_open tx;
  let i = lower_bound tx.writes ~dict ~key 0 tx.n in
  if holds tx i ~dict ~key then
    let _, _, write = tx.writes.(i) in
    write
  else
    match SMap.find key (dict_map tx.base dict) with
    | c -> !c
    | exception Not_found -> None

let tx_mem tx ~dict ~key = tx_get tx ~dict ~key <> None

let tx_write tx ~dict ~key write =
  check_open tx;
  let at = lower_bound tx.writes ~dict ~key 0 tx.n in
  if holds tx at ~dict ~key then tx.writes.(at) <- (dict, key, write)
  else begin
    if tx.n = Array.length tx.writes then begin
      let grown = Array.make (max 1 (2 * tx.n)) no_write in
      Array.blit tx.writes 0 grown 0 tx.n;
      tx.writes <- grown
    end;
    Array.blit tx.writes at tx.writes (at + 1) (tx.n - at);
    tx.writes.(at) <- (dict, key, write);
    tx.n <- tx.n + 1
  end

let tx_set tx ~dict ~key v = tx_write tx ~dict ~key (Some v)
let tx_del tx ~dict ~key = tx_write tx ~dict ~key None

let pending_dict ((dict, _, _) : pending) = dict
let pending_key ((_, key, _) : pending) = key

(* Calls [f] on [(key, value)] for the view's entries: the cells of [d]
   overlaid with the pending writes [ws] of the same dictionary, both in
   key order. *)
let iter_overlay d (ws : pending array) f =
  let next = ref 0 in
  let emit (_, k, w) = match w with Some v -> f k v | None -> () in
  let rec flush_before k =
    let i = !next in
    if i < Array.length ws && String.compare (pending_key ws.(i)) k < 0 then begin
      next := i + 1;
      emit ws.(i);
      flush_before k
    end
  in
  SMap.iter
    (fun k c ->
      flush_before k;
      let i = !next in
      if i < Array.length ws && String.equal (pending_key ws.(i)) k then begin
        next := i + 1;
        emit ws.(i)
      end
      else visit f k c)
    d;
  for i = !next to Array.length ws - 1 do
    emit ws.(i)
  done

let tx_iter tx ~dict f =
  check_open tx;
  let d = dict_map tx.base dict in
  (* The view is fixed here: writes [f] makes shift or replace slots of
     the pending array, so [dict]'s slots are copied (the writes in them
     are immutable), and a commit of this state raises while [viewing] is
     positive, so the cells hold still. *)
  let lo = lower_bound tx.writes ~dict ~key:"" 0 tx.n in
  let hi = ref lo in
  while !hi < tx.n && String.equal (pending_dict tx.writes.(!hi)) dict do
    incr hi
  done;
  let base = tx.base in
  base.viewing <- base.viewing + 1;
  match
    if !hi = lo then SMap.iter (visit f) d
    else iter_overlay d (Array.sub tx.writes lo (!hi - lo)) f
  with
  | () -> base.viewing <- base.viewing - 1
  | exception e ->
    base.viewing <- base.viewing - 1;
    raise e

(* One pass from the last pending write back to the first, so the list
   comes out in order with no reversal; it conses the tuples
   themselves. *)
let rec pending_down writes i acc =
  if i < 0 then acc else pending_down writes (i - 1) (writes.(i) :: acc)

let tx_pending tx = pending_down tx.writes (tx.n - 1) []

let apply t (dict, key, write) =
  let d = dict_map t dict in
  match write with
  | Some _ -> (
    match SMap.find key d with
    | c -> c := write
    | exception Not_found -> Hashtbl.replace t.dicts dict (SMap.add key (ref write) d))
  | None -> if SMap.mem key d then Hashtbl.replace t.dicts dict (SMap.remove key d)

let commit tx =
  check_open tx;
  if tx.n > 0 && tx.base.viewing > 0 then
    invalid_arg "State: commit during a live view of the same state";
  for i = 0 to tx.n - 1 do
    apply tx.base tx.writes.(i)
  done;
  finish tx

let rollback tx =
  check_open tx;
  let discarded = tx.n in
  finish tx;
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
          fold_cells (fun k v acc -> (dname, k, v) :: acc) d acc
        end
      | Cell.Key k -> (
        match SMap.find_opt k d with
        | None -> acc
        | Some c -> (
          Hashtbl.replace t.dicts dname (SMap.remove k d);
          match !c with Some v -> (dname, k, v) :: acc | None -> acc)))
    cell_set []
  |> List.rev

(* Fresh cells, always: no cell is ever shared between two states, so a
   commit on one bee's state never writes a cell another bee reads. *)
let insert t entries =
  List.iter
    (fun (dname, k, v) ->
      Hashtbl.replace t.dicts dname (SMap.add k (ref (Some v)) (dict_map t dname)))
    entries

let find t ~dict ~key =
  match SMap.find key (dict_map t dict) with c -> !c | exception Not_found -> None

let entries t ~dict = fold_cells (fun k v acc -> (k, v) :: acc) (dict_map t dict) [] |> List.rev

let snapshot t =
  List.concat_map
    (fun dname ->
      fold_cells (fun k v acc -> (dname, k, v) :: acc) (Hashtbl.find t.dicts dname) []
      |> List.rev)
    (sorted_dicts t)

let restore entries =
  let t = create () in
  insert t entries;
  t
