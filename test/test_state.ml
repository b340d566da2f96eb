(* State dictionaries and transactions. *)

module State = Beehive_core.State
module Value = Beehive_core.Value
module Cell = Beehive_core.Cell
module Context = Beehive_core.Context
module Message = Beehive_core.Message

let vi n = Value.V_int n

let get_int st ~dict ~key =
  match State.get st ~dict ~key with Some (Value.V_int n) -> Some n | _ -> None

let test_commit () =
  let st = State.create () in
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d" ~key:"a" (vi 1);
  State.tx_set tx ~dict:"d" ~key:"b" (vi 2);
  Alcotest.(check (option int)) "invisible before commit" None (get_int st ~dict:"d" ~key:"a");
  State.commit tx;
  Alcotest.(check (option int)) "visible after commit" (Some 1) (get_int st ~dict:"d" ~key:"a");
  Alcotest.(check int) "entry count" 2 (State.entry_count st)

let test_abort () =
  let st = State.create () in
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d" ~key:"a" (vi 1);
  State.abort tx;
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
  State.abort tx

let test_keys_sorted () =
  let st = State.create () in
  let tx = State.begin_tx st in
  List.iter (fun k -> State.tx_set tx ~dict:"d" ~key:k (vi 0)) [ "z"; "a"; "m" ];
  State.commit tx;
  Alcotest.(check (list string)) "sorted" [ "a"; "m"; "z" ] (State.keys st ~dict:"d")

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
  Alcotest.(check int) "d2 intact" 1 (State.entry_count st)

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
  State.abort tx

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
          snapshot () = entries overlay && State.entry_count st = List.length (entries overlay)
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
  State.abort tx

let test_cells_of_state () =
  let st = State.create () in
  let tx = State.begin_tx st in
  State.tx_set tx ~dict:"d" ~key:"a" (vi 1);
  State.tx_set tx ~dict:"e" ~key:"b" (vi 1);
  State.commit tx;
  let cells = State.cells st in
  Alcotest.(check bool) "has (d,a)" true (Cell.Set.mem (Cell.cell "d" "a") cells);
  Alcotest.(check int) "two cells" 2 (Cell.Set.cardinal cells)

(* A context over a 160-key "topology" dictionary, the size the TE apps
   read on every traffic update, holding [allowed]. *)
let topology_context allowed =
  let st = State.create () in
  let tx0 = State.begin_tx st in
  for i = 0 to 159 do
    State.tx_set tx0 ~dict:"topology" ~key:(Printf.sprintf "%03d" i) (vi i)
  done;
  State.commit tx0;
  Context.make ~app:"te" ~bee:1 ~hive:0
    ~now:(fun () -> Beehive_sim.Simtime.zero)
    ~rng:(Beehive_sim.Rng.create 1) ~allowed ~tx:(State.begin_tx st)
    ~message:
      (Message.make ~kind:"test.noop" ~src:Message.From_system
         ~sent_at:Beehive_sim.Simtime.zero (Helpers.Noop 0))
    ~late:(fun _ _ ?size:_ ~kind:_ _ -> ())
    ()

let test_iter_dict_held_whole_is_copy_free () =
  let ctx = topology_context (Cell.Set.singleton (Cell.whole "topology")) in
  let n = ref 0 in
  let count _ _ = incr n in
  let before = Gc.minor_words () in
  Context.iter_dict ctx ~dict:"topology" count;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every key visited" 160 !n;
  if words >= 500. then Alcotest.failf "iter_dict allocated %.0f words" words

let test_iter_dict_keys_held () =
  let ctx = topology_context (Cell.Set.of_keys "topology" [ "007"; "042"; "nope" ]) in
  Alcotest.(check (list string)) "only the held keys, in order" [ "007"; "042" ]
    (Context.dict_keys ctx ~dict:"topology")

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
        Alcotest.test_case "cells of state" `Quick test_cells_of_state;
        Alcotest.test_case "iter_dict held whole is copy-free" `Quick
          test_iter_dict_held_whole_is_copy_free;
        Alcotest.test_case "iter_dict of held keys" `Quick test_iter_dict_keys_held;
        Alcotest.test_case "empty commit allocates nothing" `Quick
          test_empty_commit_allocates_nothing;
      ] );
  ]
