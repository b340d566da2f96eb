(* State dictionaries and transactions. *)

module State = Beehive_core.State
module Value = Beehive_core.Value
module Cell = Beehive_core.Cell
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Mapping = Beehive_core.Mapping

let vi n = Value.V_int n

(* A committed read: a fresh transaction's view of [st]. *)
let get_int st ~dict ~key =
  match State.tx_get (State.begin_tx st) ~dict ~key with
  | Some (Value.V_int n) -> Some n
  | _ -> None

let entry_count st = List.length (State.snapshot st)

let test_commit () =
  let st = State.create () in
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d" ~key:"a" (vi 1);
  State.tx_set tx ~dict:"d" ~key:"b" (vi 2);
  Alcotest.(check (option int)) "invisible before commit" None (get_int st ~dict:"d" ~key:"a");
  State.commit tx;
  Alcotest.(check (option int)) "visible after commit" (Some 1) (get_int st ~dict:"d" ~key:"a");
  Alcotest.(check int) "entry count" 2 (entry_count st)

let test_abort () =
  let st = State.create () in
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d" ~key:"a" (vi 1);
  Alcotest.(check int) "one write discarded" 1 (State.rollback tx);
  Alcotest.(check (option int)) "abort discards" None (get_int st ~dict:"d" ~key:"a");
  Alcotest.check_raises "reuse after abort" (Invalid_argument "State: transaction already finished")
    (fun () -> State.tx_set tx ~dict:"d" ~key:"a" (vi 2))

let test_read_your_writes () =
  let st = State.create () in
  let tx0 = State.begin_tx st in
  State.tx_set tx0 ~dict:"d" ~key:"a" (vi 1);
  State.commit tx0;
  let tx = State.begin_tx st in
  Alcotest.(check bool) "sees base" true (State.tx_mem tx ~dict:"d" ~key:"a");
  State.tx_set tx ~dict:"d" ~key:"a" (vi 5);
  (match State.tx_get tx ~dict:"d" ~key:"a" with
  | Some (Value.V_int 5) -> ()
  | _ -> Alcotest.fail "read-your-writes");
  State.tx_del tx ~dict:"d" ~key:"a";
  Alcotest.(check bool) "delete visible in tx" false (State.tx_mem tx ~dict:"d" ~key:"a");
  State.commit tx;
  Alcotest.(check (option int)) "deleted after commit" None (get_int st ~dict:"d" ~key:"a")

let test_tx_iter_overlay () =
  let st = State.create () in
  let tx0 = State.begin_tx st in
  State.tx_set tx0 ~dict:"d" ~key:"a" (vi 1);
  State.tx_set tx0 ~dict:"d" ~key:"b" (vi 2);
  State.commit tx0;
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d" ~key:"c" (vi 3);
  State.tx_del tx ~dict:"d" ~key:"a";
  let seen = ref [] in
  State.tx_iter tx ~dict:"d" (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list string)) "overlayed view" [ "c"; "b" ] !seen;
  ignore (State.rollback tx)

let test_keys_sorted () =
  let st = State.create () in
  let tx = State.begin_tx st in
  List.iter (fun k -> State.tx_set tx ~dict:"d" ~key:k (vi 0)) [ "z"; "a"; "m" ];
  State.commit tx;
  let keys = ref [] in
  State.tx_iter (State.begin_tx st) ~dict:"d" (fun k _ -> keys := k :: !keys);
  Alcotest.(check (list string)) "sorted" [ "a"; "m"; "z" ] (List.rev !keys)

let test_extract_insert () =
  let st = State.create () in
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d1" ~key:"a" (vi 1);
  State.tx_set tx ~dict:"d1" ~key:"b" (vi 2);
  State.tx_set tx ~dict:"d2" ~key:"a" (vi 3);
  State.commit tx;
  let moved = State.extract st (Cell.Set.singleton (Cell.cell "d1" "a")) in
  Alcotest.(check int) "one entry moved" 1 (List.length moved);
  Alcotest.(check (option int)) "removed from source" None (get_int st ~dict:"d1" ~key:"a");
  Alcotest.(check (option int)) "others intact" (Some 2) (get_int st ~dict:"d1" ~key:"b");
  let st2 = State.create () in
  State.insert st2 moved;
  Alcotest.(check (option int)) "inserted" (Some 1) (get_int st2 ~dict:"d1" ~key:"a")

let test_extract_wildcard () =
  let st = State.create () in
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d1" ~key:"a" (vi 1);
  State.tx_set tx ~dict:"d1" ~key:"b" (vi 2);
  State.tx_set tx ~dict:"d2" ~key:"c" (vi 3);
  State.commit tx;
  let moved = State.extract st (Cell.Set.singleton (Cell.whole "d1")) in
  Alcotest.(check int) "whole dict" 2 (List.length moved);
  Alcotest.(check int) "d2 intact" 1 (entry_count st)

let test_snapshot_restore () =
  let st = State.create () in
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d" ~key:"a" (vi 1);
  State.tx_set tx ~dict:"e" ~key:"b" (vi 2);
  State.commit tx;
  let st2 = State.restore (State.snapshot st) in
  Alcotest.(check (option int)) "a" (Some 1) (get_int st2 ~dict:"d" ~key:"a");
  Alcotest.(check (option int)) "b" (Some 2) (get_int st2 ~dict:"e" ~key:"b");
  Alcotest.(check int) "size matches" (State.size_bytes st) (State.size_bytes st2)

let test_tx_pending () =
  let st = State.create () in
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d" ~key:"b" (vi 2);
  State.tx_set tx ~dict:"d" ~key:"a" (vi 1);
  State.tx_del tx ~dict:"d" ~key:"c";
  let pending = State.tx_pending tx in
  Alcotest.(check int) "3 pending" 3 (List.length pending);
  (match pending with
  | [ ("d", "a", Some _); ("d", "b", Some _); ("d", "c", None) ] -> ()
  | _ -> Alcotest.fail "deterministic order and deletion marker");
  ignore (State.rollback tx)

(* One random write: [(second dictionary?, key, Some value | None for a
   delete)]. Keys run past 9 so that "10" < "2" exercises String order. *)
let op_gen = QCheck.(triple bool (int_bound 11) (option (int_bound 100)))

let dict_of second = if second then "e" else "d"

let apply_ops ~write model ops =
  List.fold_left
    (fun model (second, k, v) ->
      let dict = dict_of second and key = string_of_int k in
      write ~dict ~key v;
      let model = List.remove_assoc (dict, key) model in
      match v with Some n -> ((dict, key), Some n) :: model | None -> model)
    model ops

let prop_commit_equals_model =
  (* A committed base over two dictionaries, then a pending overlay of
     sets and deletes, checked against an association-list model: the
     transactional view, the pending order, and either a rollback (which
     leaves the base as it was) or a commit (which applies the overlay). *)
  QCheck.Test.make ~name:"transaction semantics match a sequential model" ~count:300
    QCheck.(triple (list op_gen) (list op_gen) bool)
    (fun (base_ops, pending_ops, roll_back) ->
      let st = State.create () in
      let tx0 = State.begin_tx st in
      let write tx ~dict ~key = function
        | Some n -> State.tx_set tx ~dict ~key (vi n)
        | None -> State.tx_del tx ~dict ~key
      in
      let base = apply_ops ~write:(write tx0) [] base_ops in
      State.commit tx0;
      let entries model =
        List.filter_map (fun ((d, k), v) -> Option.map (fun n -> (d, k, n)) v) model
        |> List.sort compare
      in
      let snapshot () =
        List.map
          (fun (d, k, v) -> (d, k, match v with Value.V_int n -> n | _ -> -1))
          (State.snapshot st)
      in
      let tx = State.begin_tx st in
      (* The pending model records deletes too, as [None]. *)
      let pending =
        List.fold_left
          (fun p (second, k, v) ->
            let dk = (dict_of second, string_of_int k) in
            write tx ~dict:(fst dk) ~key:(snd dk) v;
            (dk, v) :: List.remove_assoc dk p)
          [] pending_ops
      in
      let overlay =
        List.fold_left
          (fun m (dk, v) ->
            let m = List.remove_assoc dk m in
            match v with Some _ -> (dk, v) :: m | None -> m)
          base pending
      in
      let view dict =
        let seen = ref [] in
        State.tx_iter tx ~dict (fun k v ->
            seen := (dict, k, match v with Value.V_int n -> n | _ -> -1) :: !seen);
        List.rev !seen
      in
      let in_dict dict = List.filter (fun (d, _, _) -> String.equal d dict) in
      let views_ok =
        List.for_all (fun dict -> view dict = in_dict dict (entries overlay)) [ "d"; "e" ]
      in
      let pending_ok =
        List.map
          (fun (d, k, v) -> ((d, k), Option.map (function Value.V_int n -> n | _ -> -1) v))
          (State.tx_pending tx)
        = List.sort compare pending
      in
      let base_untouched = snapshot () = entries base in
      let ends_ok =
        if roll_back then
          State.rollback tx = List.length pending && snapshot () = entries base
        else begin
          State.commit tx;
          snapshot () = entries overlay
        end
      in
      views_ok && pending_ok && base_untouched && ends_ok)

let test_tx_iter_ignores_own_writes () =
  let st = State.create () in
  let tx0 = State.begin_tx st in
  List.iter (fun k -> State.tx_set tx0 ~dict:"d" ~key:k (vi 0)) [ "a"; "c" ];
  State.commit tx0;
  let tx = State.begin_tx st in
  let seen = ref [] in
  State.tx_iter tx ~dict:"d" (fun k _ ->
      seen := k :: !seen;
      (* A key sorting after [k], and a delete of the next one. *)
      State.tx_set tx ~dict:"d" ~key:(k ^ "x") (vi 1);
      State.tx_del tx ~dict:"d" ~key:"c");
  Alcotest.(check (list string)) "the view taken at the call" [ "a"; "c" ] (List.rev !seen);
  Alcotest.(check (list (triple string string (option int))))
    "the writes are pending"
    [ ("d", "ax", Some 1); ("d", "c", None); ("d", "cx", Some 1) ]
    (List.map
       (fun (d, k, v) ->
         (d, k, Option.map (function Value.V_int n -> n | _ -> -1) v))
       (State.tx_pending tx));
  ignore (State.rollback tx)

(* A context over a 160-key "topology" dictionary, the size the TE apps
   read on every traffic update, holding [allowed]. *)
let topology_context allowed =
  let st = State.create () in
  let tx0 = State.begin_tx st in
  for i = 0 to 159 do
    State.tx_set tx0 ~dict:"topology" ~key:(Printf.sprintf "%03d" i) (vi i)
  done;
  State.commit tx0;
  let env =
    Context.env ~src:(Message.From_bee { bee = 1; hive = 0; app = "te" })
      ~now:(fun () -> Beehive_sim.Simtime.zero)
      ~rng:(Beehive_sim.Rng.create 1) ~late:(fun _ _ ?size:_ ~kind:_ _ -> ())
  in
  Context.make env ~state:st ~read_shadow:None ~allowed
    ~message:
      (Message.make ~kind:"test.noop" ~src:Message.From_system
         ~sent_at:Beehive_sim.Simtime.zero (Helpers.Noop 0))

let test_iter_dict_held_whole_is_copy_free () =
  let ctx = topology_context (Mapping.whole_dict "topology") in
  let n = ref 0 in
  let count _ _ = incr n in
  let before = Gc.minor_words () in
  Context.iter_dict ctx ~dict:"topology" count;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every key visited" 160 !n;
  if words >= 500. then Alcotest.failf "iter_dict allocated %.0f words" words

let test_iter_dict_keys_held () =
  let ctx =
    topology_context
      (Mapping.Cells (Cell.Set.of_list (List.map (Cell.cell "topology") [ "007"; "042"; "nope" ])))
  in
  let keys = ref [] in
  Context.iter_dict ctx ~dict:"topology" (fun k _ -> keys := k :: !keys);
  Alcotest.(check (list string)) "only the held keys, in order" [ "007"; "042" ]
    (List.rev !keys)

(* A callback that reads another held key runs its own access check
   inside the iteration's per-key check; each check asks afresh, so the
   iteration still sees exactly the held keys. *)
let test_iter_dict_nested_get () =
  let held = [ "007"; "042"; "159" ] in
  let ctx =
    topology_context (Mapping.Cells (Cell.Set.of_list (List.map (Cell.cell "topology") held)))
  in
  let int_of = function Value.V_int n -> n | _ -> -1 in
  let visits = ref [] in
  Context.iter_dict ctx ~dict:"topology" (fun k v ->
      let other = if String.equal k "159" then "007" else "159" in
      let read = Option.fold ~none:(-1) ~some:int_of (Context.get ctx ~dict:"topology" ~key:other) in
      visits := (k, int_of v, read) :: !visits);
  Alcotest.(check (list (triple string int int)))
    "the held keys, in order, each with the other key's value"
    [ ("007", 7, 159); ("042", 42, 159); ("159", 159, 7) ]
    (List.rev !visits)

(* With the key held and committed, a read hands out the cell's own
   option and an update whose [f] returns it writes that very option:
   the update allocates its pending [(dict, key, write)] tuple (4 words)
   and the transaction's first write slot (2 words), nothing else. The
   same holds whether the key is held as a [Key], as a one-cell [Cells]
   or among the cells of a two-key [Cells]: neither access check
   allocates. *)
let test_context_access_allocations () =
  List.iter
    (fun (what, allowed) ->
      let ctx = topology_context allowed in
      let before = Gc.minor_words () in
      let got = Context.get ctx ~dict:"topology" ~key:"042" in
      let get_words = Gc.minor_words () -. before in
      let keep v = v in
      let before = Gc.minor_words () in
      Context.update ctx ~dict:"topology" ~key:"042" keep;
      let update_words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0)) (what ^ ": get allocates nothing") 0.0 get_words;
      Alcotest.(check (float 0.0))
        (what ^ ": update allocates its tuple and first slot")
        6.0 update_words;
      match State.tx_pending (Context.tx ctx) with
      | [ ("topology", "042", write) ] ->
        Alcotest.(check bool) (what ^ ": the pending write is the committed option") true
          (write == got)
      | _ -> Alcotest.fail (what ^ ": expected one pending write"))
    [
      ("key", Mapping.with_key "topology" "042");
      ("one-cell set", Mapping.Cells (Cell.Set.singleton (Cell.cell "topology" "042")));
      ( "two-cell set",
        Mapping.Cells (Cell.Set.of_list [ Cell.cell "topology" "007"; Cell.cell "topology" "042" ]) );
    ]

let test_empty_commit_allocates_nothing () =
  let st = State.create () in
  let tx0 = State.begin_tx st in
  State.tx_set tx0 ~dict:"d" ~key:"a" (vi 1);
  State.commit tx0;
  let tx = State.begin_tx st in
  let before = Gc.minor_words () in
  State.commit tx;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "words allocated" 0.0 words;
  Alcotest.(check (option int)) "state kept" (Some 1) (get_int st ~dict:"d" ~key:"a")

(* The reference semantics: the persistent-map [State] this module's
   mutable-cell implementation replaced, kept verbatim as the oracle the
   multi-transaction property compares against. *)
module Oracle = struct
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
end

(* One write of the multi-transaction property: [(dictionary index, key,
   Some value | None for a delete)]. *)
type write = int * int * int option

type step =
  | Tx of { writes : write list; iter : (int * write list) option; commit : bool }
      (* writes, then optionally a [tx_iter] of one dictionary whose
         callback makes the i-th listed write on its i-th visit, then a
         commit or a rollback *)
  | Move of (int * int option) list
      (* extract these cells (a key, or [None] for the wildcard) from the
         main state and insert them into the side state *)
  | Insert of (int * int * int) list
  | Snapshot

let dict_name i = [| "d"; "e"; "f" |].(i)

let show_step = function
  | Tx { writes; iter; commit } ->
    let w (d, k, v) =
      Printf.sprintf "%s/%d%s" (dict_name d) k
        (match v with Some n -> "=" ^ string_of_int n | None -> " del")
    in
    Printf.sprintf "tx[%s]%s %s"
      (String.concat " " (List.map w writes))
      (match iter with
      | None -> ""
      | Some (d, ws) ->
        Printf.sprintf " iter %s{%s}" (dict_name d) (String.concat " " (List.map w ws)))
      (if commit then "commit" else "rollback")
  | Move cs ->
    "move "
    ^ String.concat " "
        (List.map
           (fun (d, k) ->
             dict_name d ^ "/" ^ match k with Some k -> string_of_int k | None -> "*")
           cs)
  | Insert es ->
    "insert "
    ^ String.concat " "
        (List.map (fun (d, k, v) -> Printf.sprintf "%s/%d=%d" (dict_name d) k v) es)
  | Snapshot -> "snapshot"

let steps_arb =
  let open QCheck.Gen in
  let write = triple (int_bound 2) (int_bound 11) (opt (int_bound 100)) in
  let step =
    frequency
      [
        ( 5,
          map3
            (fun writes iter commit -> Tx { writes; iter; commit })
            (list_size (0 -- 6) write)
            (opt (pair (int_bound 2) (list_size (0 -- 4) write)))
            (frequencyl [ (3, true); (1, false) ]) );
        (1, map (fun cs -> Move cs) (list_size (0 -- 3) (pair (int_bound 2) (opt (int_bound 11)))));
        ( 1,
          map
            (fun es -> Insert es)
            (list_size (0 -- 4) (triple (int_bound 2) (int_bound 11) (int_bound 100))) );
        (1, return Snapshot);
      ]
  in
  QCheck.make
    ~print:(fun steps -> String.concat "; " (List.map show_step steps))
    (list_size (1 -- 10) step)

let agree what a b = if a <> b then QCheck.Test.fail_reportf "%s differ" what

let write tx (d, k, v) =
  let dict = dict_name d and key = string_of_int k in
  match v with
  | Some n -> State.tx_set tx ~dict ~key (vi n)
  | None -> State.tx_del tx ~dict ~key

let o_write o_tx (d, k, v) =
  let dict = dict_name d and key = string_of_int k in
  match v with
  | Some n -> Oracle.tx_set o_tx ~dict ~key (vi n)
  | None -> Oracle.tx_del o_tx ~dict ~key

(* The entries an iteration visits, last visited first. *)
let visited iter =
  let seen = ref [] in
  iter (fun k v -> seen := (k, v) :: !seen);
  !seen

(* One [Tx] step on an open transaction and on the oracle's, side by
   side: every read, view, pending list and rollback count must
   agree. *)
let run_tx tx o_tx ~writes ~iter ~commit =
  List.iter
    (fun w ->
      write tx w;
      o_write o_tx w)
    writes;
  (match iter with
  | None -> ()
  | Some (d, ws) ->
    let dict = dict_name d in
    (* The same writes on both sides, each made inside its own
       iteration, so each side's view is checked against writes
       landing mid-walk. *)
    let writing iter write f =
      let pending = ref ws in
      iter ~dict (fun k v ->
          f k v;
          match !pending with
          | w :: rest ->
            pending := rest;
            write w
          | [] -> ())
    in
    agree "views with writes inside"
      (visited (writing (State.tx_iter tx) (write tx)))
      (visited (writing (Oracle.tx_iter o_tx) (o_write o_tx))));
  for d = 0 to 2 do
    let dict = dict_name d in
    agree "views" (visited (State.tx_iter tx ~dict)) (visited (Oracle.tx_iter o_tx ~dict));
    for k = 0 to 11 do
      let key = string_of_int k in
      agree "reads" (State.tx_get tx ~dict ~key) (Oracle.tx_get o_tx ~dict ~key)
    done
  done;
  agree "pending writes" (State.tx_pending tx) (Oracle.tx_pending o_tx);
  if commit then begin
    State.commit tx;
    Oracle.commit o_tx
  end
  else agree "rollback counts" (State.rollback tx) (Oracle.rollback o_tx)

let prop_transactions_match_oracle =
  (* Several transactions over three dictionaries, interleaved with
     migration-style extract/insert and snapshots, run on [State] and on
     the oracle side by side. Every observable must agree: reads, views,
     the pending list, rollback counts, extracted entries and both
     states' snapshots. Snapshots and extracted entries taken earlier
     must not change under later commits, and the side state, filled
     only by [insert], must not see the main state's later writes. *)
  QCheck.Test.make ~name:"transactions agree with the persistent-map oracle" ~count:500
    steps_arb
    (fun steps ->
      let st = State.create () and side = State.create () in
      let o_st = Oracle.create () and o_side = Oracle.create () in
      let kept = ref [] in
      let run = function
        | Tx { writes; iter; commit } ->
          run_tx (State.begin_tx st) (Oracle.begin_tx o_st) ~writes ~iter ~commit
        | Move cs ->
          let cells =
            Cell.Set.of_list
              (List.map
                 (fun (d, k) ->
                   match k with
                   | Some k -> Cell.cell (dict_name d) (string_of_int k)
                   | None -> Cell.whole (dict_name d))
                 cs)
          in
          let moved = State.extract st cells and o_moved = Oracle.extract o_st cells in
          agree "extracted entries" moved o_moved;
          State.insert side moved;
          Oracle.insert o_side o_moved;
          kept := (moved, o_moved) :: !kept
        | Insert es ->
          let es = List.map (fun (d, k, v) -> (dict_name d, string_of_int k, vi v)) es in
          State.insert st es;
          Oracle.insert o_st es
        | Snapshot -> kept := (State.snapshot st, Oracle.snapshot o_st) :: !kept
      in
      List.iter
        (fun step ->
          run step;
          agree "main snapshots" (State.snapshot st) (Oracle.snapshot o_st);
          agree "side snapshots" (State.snapshot side) (Oracle.snapshot o_side);
          agree "sizes" (State.size_bytes st) (Oracle.size_bytes o_st);
          List.iter (fun (real, oracle) -> agree "kept entries" real oracle) !kept)
        steps;
      true)

(* A bee's deliveries: each runs a [Tx] step against one of two states
   ([true]: the first), as a bee's state is replaced when it revives,
   fails over or lands. *)
let deliveries_arb =
  let open QCheck.Gen in
  let write = triple (int_bound 2) (int_bound 11) (opt (int_bound 100)) in
  let delivery =
    map2
      (fun first (writes, iter, commit) -> (first, writes, iter, commit))
      (frequencyl [ (3, true); (1, false) ])
      (triple (list_size (0 -- 6) write)
         (opt (pair (int_bound 2) (list_size (0 -- 4) write)))
         (frequencyl [ (3, true); (1, false) ]))
  in
  QCheck.make
    ~print:(fun ds ->
      String.concat "; "
        (List.map
           (fun (first, writes, iter, commit) ->
             (if first then "" else "other ") ^ show_step (Tx { writes; iter; commit }))
           ds))
    (list_size (1 -- 20) delivery)

let prop_reopened_tx_matches_fresh =
  (* One transaction, reopened for every delivery as a bee's is, against
     a fresh [begin_tx] per delivery and the oracle: each side's reads,
     views, pending lists and rollback counts agree with its oracle, the
     three sides' states agree after every delivery, and the finished
     transaction refuses a read until it is reopened. *)
  QCheck.Test.make ~name:"a reopened transaction agrees with a fresh one per delivery" ~count:500
    deliveries_arb
    (fun deliveries ->
      let pick first (a, b) = if first then a else b in
      let reopened = (State.create (), State.create ())
      and fresh = (State.create (), State.create ())
      and o_reopened = (Oracle.create (), Oracle.create ())
      and o_fresh = (Oracle.create (), Oracle.create ()) in
      let tx = State.begin_tx (fst reopened) in
      ignore (State.rollback tx);
      List.iter
        (fun (first, writes, iter, commit) ->
          State.reopen tx (pick first reopened);
          run_tx tx (Oracle.begin_tx (pick first o_reopened)) ~writes ~iter ~commit;
          run_tx
            (State.begin_tx (pick first fresh))
            (Oracle.begin_tx (pick first o_fresh))
            ~writes ~iter ~commit;
          agree "finished pending" (State.tx_pending tx) [];
          (match State.tx_get tx ~dict:"d" ~key:"0" with
          | _ -> QCheck.Test.fail_report "a finished transaction served a read"
          | exception Invalid_argument _ -> ());
          List.iter
            (fun first ->
              let snap = State.snapshot (pick first reopened) in
              agree "reopened and oracle" snap (Oracle.snapshot (pick first o_reopened));
              agree "reopened and fresh" snap (State.snapshot (pick first fresh));
              agree "fresh and oracle" (State.snapshot (pick first fresh))
                (Oracle.snapshot (pick first o_fresh)))
            [ true; false ])
        deliveries;
      true)

(* A bee's transaction, reopened against its state for the next
   delivery, allocates nothing: the record and its grown pending array
   are reused, and the used slots were cleared when it finished. *)
let test_reopen_allocates_nothing () =
  let st = State.create () and other = State.create () in
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d" ~key:"a" (vi 1);
  State.tx_set tx ~dict:"d" ~key:"b" (vi 2);
  State.commit tx;
  let before = Gc.minor_words () in
  for i = 1 to 1_000 do
    State.reopen tx (if i land 1 = 0 then st else other);
    ignore (State.rollback tx)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "words per reopen" 0.0 words;
  State.reopen tx st;
  let three = Some (vi 3) in
  let before = Gc.minor_words () in
  State.tx_write tx ~dict:"d" ~key:"a" three;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "a write into the grown array allocates its tuple" 4.0 words;
  State.commit tx;
  Alcotest.(check (option int)) "committed through the reopened transaction" (Some 3)
    (Option.map (function Value.V_int n -> n | _ -> -1) (State.find st ~dict:"d" ~key:"a"))

(* A finished transaction keeps no write alive: a bee's transaction
   lives as long as the bee, so a write it rolled back must not. *)
let test_finished_tx_keeps_no_write () =
  let st = State.create () in
  let tx = State.begin_tx st in
  let held = Weak.create 1 in
  let write () =
    let v = Value.V_string (String.make 64 'x') in
    Weak.set held 0 (Some v);
    State.tx_set tx ~dict:"d" ~key:"a" v
  in
  write ();
  Alcotest.(check int) "one write discarded" 1 (State.rollback tx);
  Gc.full_major ();
  Alcotest.(check bool) "the discarded value is collected" false (Weak.check held 0);
  (* The transaction is still the bee's: reopened for the next delivery. *)
  State.reopen tx st;
  Alcotest.(check int) "and the next delivery starts empty" 0 (State.rollback tx)

let committed_state entries =
  let st = State.create () in
  let tx = State.begin_tx st in
  List.iter (fun (dict, key, v) -> State.tx_set tx ~dict ~key v) entries;
  State.commit tx;
  st

let test_overwrite_commit_allocates_nothing () =
  let st = committed_state [ ("d", "a", vi 1); ("d", "b", vi 1); ("e", "a", vi 1) ] in
  let two = vi 2 in
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d" ~key:"b" two;
  State.tx_set tx ~dict:"e" ~key:"a" two;
  let before = Gc.minor_words () in
  State.commit tx;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "words allocated" 0.0 words;
  Alcotest.(check (list (triple string string int)))
    "overwritten in place"
    [ ("d", "a", 1); ("d", "b", 2); ("e", "a", 2) ]
    (List.map
       (fun (d, k, v) -> (d, k, match v with Value.V_int n -> n | _ -> -1))
       (State.snapshot st))

let test_view_cost_ignores_dict_size () =
  (* One pending overwrite in the iterated dictionary: the view costs the
     same at 100 keys as at 1,000. *)
  let iter_words n =
    let st =
      committed_state (List.init n (fun i -> ("d", Printf.sprintf "%04d" i, vi i)))
    in
    let tx = State.begin_tx st in
    State.tx_set tx ~dict:"d" ~key:"0050" (vi (-1));
    let visited = ref 0 and overwritten = ref false in
    let f k v =
      incr visited;
      if String.equal k "0050" then overwritten := v = Value.V_int (-1)
    in
    let before = Gc.minor_words () in
    State.tx_iter tx ~dict:"d" f;
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "every key visited" n !visited;
    Alcotest.(check bool) "the pending write is seen" true !overwritten;
    words
  in
  let small = iter_words 100 in
  Alcotest.(check (float 0.0)) "same words at 1,000 keys as at 100" small (iter_words 1_000)

let test_commit_during_view_raises () =
  let st = committed_state [ ("d", "a", vi 1); ("d", "b", vi 2) ] in
  let reader = State.begin_tx st and writer = State.begin_tx st in
  State.tx_set writer ~dict:"e" ~key:"x" (vi 3);
  Alcotest.check_raises "a commit with writes during a view"
    (Invalid_argument "State: commit during a live view of the same state") (fun () ->
      State.tx_iter reader ~dict:"d" (fun _ _ -> State.commit writer));
  (* An empty commit writes no cell, so it may run inside a view. *)
  State.tx_iter reader ~dict:"d" (fun _ _ -> State.commit (State.begin_tx st));
  (* The view ended, with the exception, so the writer may commit now. *)
  State.commit writer;
  Alcotest.(check (option int)) "committed after the view"
    (Some 3)
    (match State.tx_get (State.begin_tx st) ~dict:"e" ~key:"x" with
    | Some (Value.V_int n) -> Some n
    | _ -> None)

(* A handler's accesses under a [Key] mapping against the singleton
   [Cells] of the same cell: random gets, mems, sets, deletes, updates
   and [iter_dict]s, over two dictionaries with committed entries, must
   return the same values and raise the same [Access_violation]s, and
   leave the same pending writes. *)
type access =
  | A_get of int * int
  | A_mem of int * int
  | A_set of int * int * int
  | A_del of int * int
  | A_update of int * int
  | A_iter of int

let show_access =
  let dk d k = Printf.sprintf "%s/%d" (dict_of (d = 1)) k in
  function
  | A_get (d, k) -> "get " ^ dk d k
  | A_mem (d, k) -> "mem " ^ dk d k
  | A_set (d, k, v) -> Printf.sprintf "set %s=%d" (dk d k) v
  | A_del (d, k) -> "del " ^ dk d k
  | A_update (d, k) -> "update " ^ dk d k
  | A_iter d -> "iter " ^ dict_of (d = 1)

let prop_key_access_matches_singleton =
  let open QCheck.Gen in
  let dk = pair (int_bound 1) (int_bound 3) in
  let access =
    oneof
      [
        map (fun (d, k) -> A_get (d, k)) dk;
        map (fun (d, k) -> A_mem (d, k)) dk;
        map2 (fun (d, k) v -> A_set (d, k, v)) dk (int_bound 9);
        map (fun (d, k) -> A_del (d, k)) dk;
        map (fun (d, k) -> A_update (d, k)) dk;
        map (fun d -> A_iter d) (int_bound 1);
      ]
  in
  let print ((d, k), l) =
    Printf.sprintf "held %s/%d: %s" (dict_of (d = 1)) k
      (String.concat "; " (List.map show_access l))
  in
  QCheck.Test.make ~name:"a Key mapping admits what its singleton Cells admits" ~count:500
    (QCheck.make ~print (pair dk (list_size (0 -- 20) access)))
    (fun ((hd, hk), accesses) ->
      let run allowed =
        let st = State.create () in
        let tx0 = State.begin_tx st in
        List.iter
          (fun dict ->
            for k = 0 to 3 do
              State.tx_set tx0 ~dict ~key:(string_of_int k) (vi k)
            done)
          [ "d"; "e" ];
        State.commit tx0;
        let env =
          Context.env ~src:(Message.From_bee { bee = 1; hive = 0; app = "t" })
            ~now:(fun () -> Beehive_sim.Simtime.zero)
            ~rng:(Beehive_sim.Rng.create 1) ~late:(fun _ _ ?size:_ ~kind:_ _ -> ())
        in
        let ctx =
          Context.make env ~state:st ~read_shadow:None ~allowed
            ~message:
              (Message.make ~kind:"test.noop" ~src:Message.From_system
                 ~sent_at:Beehive_sim.Simtime.zero (Helpers.Noop 0))
        in
        let name d = dict_of (d = 1) in
        let one = function
          | A_get (d, k) ->
            Option.fold ~none:"none" ~some:(Format.asprintf "%a" Value.pp)
              (Context.get ctx ~dict:(name d) ~key:(string_of_int k))
          | A_mem (d, k) -> string_of_bool (Context.mem ctx ~dict:(name d) ~key:(string_of_int k))
          | A_set (d, k, v) ->
            Context.set ctx ~dict:(name d) ~key:(string_of_int k) (vi v);
            "set"
          | A_del (d, k) ->
            Context.del ctx ~dict:(name d) ~key:(string_of_int k);
            "del"
          | A_update (d, k) ->
            Context.update ctx ~dict:(name d) ~key:(string_of_int k) (fun _ -> Some (vi 42));
            "update"
          | A_iter d ->
            let seen = ref [] in
            Context.iter_dict ctx ~dict:(name d) (fun k _ -> seen := k :: !seen);
            String.concat "," !seen
        in
        let outcomes =
          List.map
            (fun a ->
              match one a with
              | r -> r
              | exception Context.Access_violation { app; dict; key } ->
                Printf.sprintf "violation %s %s %s" app dict key)
            accesses
        in
        (outcomes, State.tx_pending (Context.tx ctx))
      in
      let dict = dict_of (hd = 1) and key = string_of_int hk in
      let by_key = run (Mapping.with_key dict key)
      and by_set = run (Mapping.Cells (Cell.Set.singleton (Cell.cell dict key))) in
      if by_key <> by_set then
        QCheck.Test.fail_reportf "key: [%s], set: [%s]"
          (String.concat "; " (fst by_key))
          (String.concat "; " (fst by_set));
      true)

let suite =
  [
    ( "state",
      [
        Alcotest.test_case "commit" `Quick test_commit;
        Alcotest.test_case "abort" `Quick test_abort;
        Alcotest.test_case "read-your-writes" `Quick test_read_your_writes;
        Alcotest.test_case "tx_iter overlay" `Quick test_tx_iter_overlay;
        Alcotest.test_case "keys sorted" `Quick test_keys_sorted;
        Alcotest.test_case "extract/insert" `Quick test_extract_insert;
        Alcotest.test_case "extract wildcard" `Quick test_extract_wildcard;
        Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
        Alcotest.test_case "tx_pending" `Quick test_tx_pending;
        QCheck_alcotest.to_alcotest prop_commit_equals_model;
        Alcotest.test_case "tx_iter ignores its own writes" `Quick
          test_tx_iter_ignores_own_writes;
        Alcotest.test_case "iter_dict held whole is copy-free" `Quick
          test_iter_dict_held_whole_is_copy_free;
        Alcotest.test_case "iter_dict of held keys" `Quick test_iter_dict_keys_held;
        Alcotest.test_case "iter_dict with a nested get" `Quick test_iter_dict_nested_get;
        Alcotest.test_case "context get and update allocations" `Quick
          test_context_access_allocations;
        Alcotest.test_case "empty commit allocates nothing" `Quick
          test_empty_commit_allocates_nothing;
        QCheck_alcotest.to_alcotest prop_transactions_match_oracle;
        QCheck_alcotest.to_alcotest prop_reopened_tx_matches_fresh;
        Alcotest.test_case "reopening a bee's transaction allocates 0 words" `Quick
          test_reopen_allocates_nothing;
        Alcotest.test_case "a finished transaction keeps no write alive" `Quick
          test_finished_tx_keeps_no_write;
        QCheck_alcotest.to_alcotest prop_key_access_matches_singleton;
        Alcotest.test_case "overwrite commit allocates nothing" `Quick
          test_overwrite_commit_allocates_nothing;
        Alcotest.test_case "view cost ignores dictionary size" `Quick
          test_view_cost_ignores_dict_size;
        Alcotest.test_case "commit during a live view raises" `Quick
          test_commit_during_view_raises;
      ] );
  ]
