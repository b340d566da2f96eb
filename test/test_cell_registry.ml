(* Cells (wildcard intersection) and the ownership registry. *)

module Cell = Beehive_core.Cell
module Registry = Beehive_core.Registry

let c = Cell.cell
let w = Cell.whole

let test_cell_intersects () =
  Alcotest.(check bool) "equal cells" true (Cell.intersects (c "d" "k") (c "d" "k"));
  Alcotest.(check bool) "different keys" false (Cell.intersects (c "d" "k1") (c "d" "k2"));
  Alcotest.(check bool) "different dicts" false (Cell.intersects (c "d1" "k") (c "d2" "k"));
  Alcotest.(check bool) "wildcard hits any key" true (Cell.intersects (w "d") (c "d" "k"));
  Alcotest.(check bool) "wildcard other dict" false (Cell.intersects (w "d1") (c "d2" "k"));
  Alcotest.(check bool) "two wildcards same dict" true (Cell.intersects (w "d") (w "d"))

let test_cell_set_intersects () =
  let s1 = Cell.Set.of_list [ c "d" "a"; c "d" "b" ] in
  let s2 = Cell.Set.of_list [ c "d" "b"; c "d" "c" ] in
  let s3 = Cell.Set.of_list [ c "d" "x" ] in
  let sw = Cell.Set.of_list [ w "d" ] in
  Alcotest.(check bool) "share b" true (Cell.Set.intersects s1 s2);
  Alcotest.(check bool) "disjoint" false (Cell.Set.intersects s1 s3);
  Alcotest.(check bool) "wildcard left" true (Cell.Set.intersects sw s3);
  Alcotest.(check bool) "wildcard right" true (Cell.Set.intersects s3 sw);
  Alcotest.(check bool) "empty" false (Cell.Set.intersects Cell.Set.empty s1)

let prop_wildcard_absorbs =
  QCheck.Test.make ~name:"wildcard set intersects any non-empty same-dict set" ~count:200
    QCheck.(list_of_size Gen.(1 -- 8) (string_of_size Gen.(1 -- 4)))
    (fun keys ->
      let s = Cell.Set.of_list (List.map (Cell.cell "d") keys) in
      Cell.Set.intersects (Cell.Set.singleton (w "d")) s)

let test_register_and_owners () =
  let r = Registry.create () in
  let _b0 = Registry.register_bee r ~bee_id:0 ~app:"a" ~hive:0 in
  let _b1 = Registry.register_bee r ~bee_id:1 ~app:"a" ~hive:1 in
  Registry.assign r ~bee:0 (Cell.Set.of_list [ c "d" "x" ]);
  Registry.assign r ~bee:1 (Cell.Set.of_list [ c "d" "y" ]);
  Alcotest.(check (list int)) "exact owner" [ 0 ]
    (Registry.owners r ~app:"a" (Cell.Set.singleton (c "d" "x")));
  Alcotest.(check (list int)) "wildcard finds all" [ 0; 1 ]
    (Registry.owners r ~app:"a" (Cell.Set.singleton (w "d")));
  Alcotest.(check (list int)) "unknown key" []
    (Registry.owners r ~app:"a" (Cell.Set.singleton (c "d" "z")));
  Alcotest.(check (list int)) "other app blind" []
    (Registry.owners r ~app:"b" (Cell.Set.singleton (c "d" "x")))

let test_wildcard_owner_catches_new_keys () =
  let r = Registry.create () in
  ignore (Registry.register_bee r ~bee_id:0 ~app:"a" ~hive:0);
  Registry.assign r ~bee:0 (Cell.Set.singleton (w "d"));
  Alcotest.(check (list int)) "any key maps to wildcard owner" [ 0 ]
    (Registry.owners r ~app:"a" (Cell.Set.singleton (c "d" "brand-new")))

let test_assign_conflict_rejected () =
  let r = Registry.create () in
  ignore (Registry.register_bee r ~bee_id:0 ~app:"a" ~hive:0);
  ignore (Registry.register_bee r ~bee_id:1 ~app:"a" ~hive:1);
  Registry.assign r ~bee:0 (Cell.Set.singleton (c "d" "x"));
  (try
     Registry.assign r ~bee:1 (Cell.Set.singleton (c "d" "x"));
     Alcotest.fail "conflicting assign must raise"
   with Invalid_argument _ -> ());
  (try
     Registry.assign r ~bee:1 (Cell.Set.singleton (w "d"));
     Alcotest.fail "wildcard conflicting assign must raise"
   with Invalid_argument _ -> ());
  Registry.check_invariant r

let test_reassign_merge () =
  let r = Registry.create () in
  ignore (Registry.register_bee r ~bee_id:0 ~app:"a" ~hive:0);
  ignore (Registry.register_bee r ~bee_id:1 ~app:"a" ~hive:1);
  Registry.assign r ~bee:0 (Cell.Set.of_list [ c "d" "x"; c "d" "y" ]);
  Registry.assign r ~bee:1 (Cell.Set.of_list [ c "d" "z" ]);
  Registry.reassign_all r ~from_bee:1 ~to_bee:0;
  Alcotest.(check (list int)) "winner owns moved key" [ 0 ]
    (Registry.owners r ~app:"a" (Cell.Set.singleton (c "d" "z")));
  Alcotest.(check bool) "loser gone" true (Registry.find_bee r 1 = None);
  Alcotest.(check int) "winner cell count" 3
    (Cell.Set.cardinal (Registry.bee r 0).Registry.bee_cells);
  Registry.check_invariant r

let test_unassign () =
  let r = Registry.create () in
  ignore (Registry.register_bee r ~bee_id:0 ~app:"a" ~hive:0);
  Registry.assign r ~bee:0 (Cell.Set.of_list [ c "d" "x"; w "e" ]);
  Registry.unassign_bee r ~bee:0;
  Alcotest.(check (list int)) "cells released" []
    (Registry.owners r ~app:"a" (Cell.Set.of_list [ c "d" "x"; c "e" "anything" ]));
  Alcotest.(check bool) "no bees" true (Registry.find_bee r 0 = None)

let test_hive_accounting () =
  let r = Registry.create () in
  ignore (Registry.register_bee r ~bee_id:0 ~app:"a" ~hive:0);
  ignore (Registry.register_bee r ~bee_id:1 ~app:"b" ~hive:0);
  Registry.assign r ~bee:0 (Cell.Set.of_list [ c "d" "x"; c "d" "y" ]);
  Registry.assign r ~bee:1 (Cell.Set.of_list [ c "e" "z" ]);
  Alcotest.(check int) "cells on hive 0" 3 (Registry.cells_on_hive r ~hive:0);
  Registry.set_hive r ~bee:1 ~hive:2;
  Alcotest.(check int) "after move" 2 (Registry.cells_on_hive r ~hive:0);
  Alcotest.(check int) "bee 1 on hive 2" 2 (Registry.bee r 1).Registry.bee_hive;
  Alcotest.(check int) "cells on hive 2" 1 (Registry.cells_on_hive r ~hive:2)

(* Random assignment workloads never produce two owners for one cell. *)
let prop_single_ownership =
  QCheck.Test.make ~name:"registry never double-assigns a cell" ~count:200
    QCheck.(list (pair (int_bound 3) (int_bound 9)))
    (fun ops ->
      let r = Registry.create () in
      for i = 0 to 3 do
        ignore (Registry.register_bee r ~bee_id:i ~app:"a" ~hive:i)
      done;
      List.iter
        (fun (bee, key) ->
          let cells = Cell.Set.singleton (c "d" (string_of_int key)) in
          match Registry.owners r ~app:"a" cells with
          | [] -> Registry.assign r ~bee cells
          | [ owner ] -> if owner = bee then Registry.assign r ~bee cells
          | _ -> ())
        ops;
      Registry.check_invariant r;
      (* every key has at most one owner *)
      List.for_all
        (fun (_, key) ->
          List.length (Registry.owners r ~app:"a" (Cell.Set.singleton (c "d" (string_of_int key))))
          <= 1)
        ops)

type reg_op =
  | Register of int * int  (** bee, hive *)
  | Assign of int * Cell.Set.t
  | Unassign of int
  | Reassign of int * int  (** from, to *)
  | Set_hive of int * int

let show_reg_op = function
  | Register (b, h) -> Printf.sprintf "register %d@%d" b h
  | Assign (b, s) -> Format.asprintf "assign %d %a" b Cell.Set.pp s
  | Unassign b -> Printf.sprintf "unassign %d" b
  | Reassign (a, b) -> Printf.sprintf "reassign %d->%d" a b
  | Set_hive (b, h) -> Printf.sprintf "set_hive %d@%d" b h

let gen_reg_op =
  let open QCheck.Gen in
  let bee = int_bound 5 and hive = int_bound 3 in
  let cell =
    oneof
      [
        map (fun k -> c "d" (string_of_int k)) (int_bound 7);
        map (fun k -> c "e" (string_of_int k)) (int_bound 3);
        oneofl [ w "d"; w "e" ];
      ]
  in
  frequency
    [
      (2, map2 (fun b h -> Register (b, h)) bee hive);
      (4, map2 (fun b l -> Assign (b, Cell.Set.of_list l)) bee (list_size (1 -- 4) cell));
      (1, map (fun b -> Unassign b) bee);
      (1, map2 (fun a b -> Reassign (a, b)) bee bee);
      (2, map2 (fun b h -> Set_hive (b, h)) bee hive);
    ]

(* The per-hive cell count follows every registry operation: after each
   one, [cells_on_hive] equals a recount over the registered bees. Bees
   of apps "a" (even ids) and "b" (odd ids) share the cell namespace but
   not ownership. *)
let prop_hive_cell_count =
  QCheck.Test.make ~name:"per-hive cell count matches a recount" ~count:500
    QCheck.(make ~print:Print.(list show_reg_op) Gen.(list_size (0 -- 40) gen_reg_op))
    (fun ops ->
      let r = Registry.create () in
      let app b = if b mod 2 = 0 then "a" else "b" in
      let register b h = ignore (Registry.register_bee r ~bee_id:b ~app:(app b) ~hive:h) in
      for b = 0 to 5 do
        register b (b mod 3)
      done;
      let exists b = Registry.find_bee r b <> None in
      let recount h =
        List.fold_left
          (fun acc b ->
            match Registry.find_bee r b with
            | Some i when i.Registry.bee_hive = h -> acc + Cell.Set.cardinal i.Registry.bee_cells
            | Some _ | None -> acc)
          0 [ 0; 1; 2; 3; 4; 5 ]
      in
      List.for_all
        (fun op ->
          (match op with
           | Register (b, h) -> if not (exists b) then register b h
           | Assign (b, cells) -> (
             if exists b then try Registry.assign r ~bee:b cells with Invalid_argument _ -> ())
           | Unassign b -> Registry.unassign_bee r ~bee:b
           | Reassign (a, b) ->
             if a <> b && exists a && exists b && String.equal (app a) (app b) then
               Registry.reassign_all r ~from_bee:a ~to_bee:b
           | Set_hive (b, h) -> if exists b then Registry.set_hive r ~bee:b ~hive:h);
          Registry.check_invariant r;
          List.for_all (fun h -> Registry.cells_on_hive r ~hive:h = recount h) [ 0; 1; 2; 3 ])
        ops)

(* [owners] and the routing path's [owner] against a brute-force scan
   of every registered bee (ids 0 to 5) with [Cell.Set.intersects], after each step of
   a random workload of keyed and wildcard assigns (conflicting ones are
   refused), unassigns and merges. Bees of apps "a" (even ids) and "b"
   (odd ids) share the cell namespace but not ownership. The queries are
   every single cell, both wildcards together (one owner of both takes
   [owner]'s no-scan path) and the generated sets. *)
let prop_owners_match_scan =
  let universe =
    List.init 8 (fun k -> c "d" (string_of_int k))
    @ List.init 4 (fun k -> c "e" (string_of_int k))
    @ [ w "d"; w "e" ]
  in
  let fixed =
    Cell.Set.of_list [ w "d"; w "e" ] :: List.map Cell.Set.singleton universe
  in
  let gen_op =
    QCheck.Gen.(
      gen_reg_op >>= function
      | Register _ | Set_hive _ ->
        map2 (fun b l -> Assign (b, Cell.Set.of_list l)) (int_bound 5)
          (list_size (1 -- 3) (oneofl universe))
      | op -> return op)
  in
  let gen =
    QCheck.Gen.(
      pair (list_size (0 -- 40) gen_op)
        (list_size (0 -- 6) (map Cell.Set.of_list (list_size (1 -- 4) (oneofl universe)))))
  in
  let print (ops, qs) =
    QCheck.Print.(list show_reg_op) ops ^ " queries "
    ^ String.concat "; " (List.map (Format.asprintf "%a" Cell.Set.pp) qs)
  in
  QCheck.Test.make ~name:"owners and owner match a scan of every bee" ~count:500
    (QCheck.make ~print gen)
    (fun (ops, queries) ->
      let r = Registry.create () in
      let app b = if b mod 2 = 0 then "a" else "b" in
      for b = 0 to 5 do
        ignore (Registry.register_bee r ~bee_id:b ~app:(app b) ~hive:(b mod 3))
      done;
      let exists b = Registry.find_bee r b <> None in
      let queries = fixed @ queries in
      let scan app cells =
        List.filter
          (fun b ->
            match Registry.find_bee r b with
            | Some i ->
              String.equal i.Registry.bee_app app && Cell.Set.intersects i.Registry.bee_cells cells
            | None -> false)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      let agrees app cells =
        let want = scan app cells in
        let sole =
          match want with [] -> Registry.no_owner | [ b ] -> b | _ -> Registry.several
        in
        Registry.owners r ~app cells = want && Registry.owner r ~app cells = sole
      in
      List.for_all
        (fun op ->
          (match op with
           | Assign (b, cells) -> (
             if exists b then try Registry.assign r ~bee:b cells with Invalid_argument _ -> ())
           | Unassign b -> Registry.unassign_bee r ~bee:b
           | Reassign (a, b) ->
             if a <> b && exists a && exists b && String.equal (app a) (app b) then
               Registry.reassign_all r ~from_bee:a ~to_bee:b
           | Register _ | Set_hive _ -> ());
          List.for_all (fun q -> agrees "a" q && agrees "b" q) queries)
        ops)

(* The one-key routing path against the set path it replaces, after
   each step of a random history of registers, keyed and wildcard
   assigns, unassigns, merges and moves: [key_owner] equals [owner] of
   the cell's singleton, and the index's exact membership ([holds_key],
   [holds_all], [unheld]) equals membership in the bee's own cell set,
   for every keyed cell, every bee and the sets mixing keys and
   wildcards. *)
let prop_key_path_matches_sets =
  let keyed =
    List.init 8 (fun k -> ("d", string_of_int k)) @ List.init 4 (fun k -> ("e", string_of_int k))
  in
  let sets =
    List.map Cell.Set.of_list
      [ [ w "d" ]; [ w "d"; w "e" ]; [ c "d" "0"; w "e" ]; [ c "d" "1"; c "d" "2" ]; [ c "e" "3" ] ]
  in
  QCheck.Test.make ~name:"the key path's owner and membership match the set path" ~count:500
    QCheck.(make ~print:Print.(list show_reg_op) Gen.(list_size (0 -- 40) gen_reg_op))
    (fun ops ->
      let r = Registry.create () in
      let app b = if b mod 2 = 0 then "a" else "b" in
      let register b h = ignore (Registry.register_bee r ~bee_id:b ~app:(app b) ~hive:h) in
      for b = 0 to 5 do
        register b (b mod 3)
      done;
      let exists b = Registry.find_bee r b <> None in
      let agrees () =
        List.iter
          (fun (dict, key) ->
            let cell = c dict key in
            List.iter
              (fun app ->
                let by_set = Registry.owner r ~app (Cell.Set.singleton cell) in
                let by_key = Registry.key_owner r ~app ~dict ~key in
                if by_set <> by_key then
                  QCheck.Test.fail_reportf "owner of %s/%s in %s: set %d, key %d" dict key app
                    by_set by_key)
              [ "a"; "b" ];
            for b = 0 to 5 do
              match Registry.find_bee r b with
              | None -> ()
              | Some i ->
                let want = Cell.Set.mem cell i.Registry.bee_cells in
                if Registry.holds_key r ~app:(app b) ~bee:b ~dict ~key <> want then
                  QCheck.Test.fail_reportf "holds_key %d %s/%s, expected %b" b dict key want
            done)
          keyed;
        for b = 0 to 5 do
          match Registry.find_bee r b with
          | None -> ()
          | Some i ->
            List.iter
              (fun cs ->
                let owned = i.Registry.bee_cells in
                let want = Cell.Set.filter (fun x -> not (Cell.Set.mem x owned)) cs in
                if
                  Registry.holds_all r ~app:(app b) ~bee:b cs <> Cell.Set.subset cs owned
                  || not (Cell.Set.equal (Registry.unheld r ~app:(app b) ~bee:b cs) want)
                then QCheck.Test.fail_reportf "bee %d and %a" b Cell.Set.pp cs)
              sets
        done;
        true
      in
      List.for_all
        (fun op ->
          (match op with
           | Register (b, h) -> if not (exists b) then register b h
           | Assign (b, cells) -> (
             if exists b then try Registry.assign r ~bee:b cells with Invalid_argument _ -> ())
           | Unassign b -> Registry.unassign_bee r ~bee:b
           | Reassign (a, b) ->
             if a <> b && exists a && exists b && String.equal (app a) (app b) then
               Registry.reassign_all r ~from_bee:a ~to_bee:b
           | Set_hive (b, h) -> if exists b then Registry.set_hive r ~bee:b ~hive:h);
          agrees ())
        ops)

(* [owners_of_dict] against a reference: the distinct owners of any
   cell of the dict, wildcard or keyed, from a scan of every bee, sorted
   by id. Bee [i] has id [17 * i], so ids run past the marks' first 64
   bytes and leave gaps; apps "a" (even i) and "b" (odd i) share the
   cell namespace but not ownership. Each query is asked twice: the
   first must leave no mark behind for the second. *)
let prop_owners_of_dict =
  let id i = 17 * i in
  let cell =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> c "d" (string_of_int k)) (int_bound 9);
          map (fun k -> c "e" (string_of_int k)) (int_bound 3);
          oneofl [ w "d"; w "e" ];
        ])
  in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 6,
            map2
              (fun b l -> Assign (b, Cell.Set.of_list l))
              (int_bound 7) (list_size (1 -- 3) cell) );
          (1, map (fun b -> Unassign b) (int_bound 7));
          (1, map2 (fun a b -> Reassign (a, b)) (int_bound 7) (int_bound 7));
        ])
  in
  QCheck.Test.make ~name:"owners_of_dict equals the sorted distinct owners" ~count:500
    QCheck.(make ~print:Print.(list show_reg_op) Gen.(list_size (0 -- 40) gen_op))
    (fun ops ->
      let r = Registry.create () in
      let app i = if i mod 2 = 0 then "a" else "b" in
      for i = 0 to 7 do
        ignore (Registry.register_bee r ~bee_id:(id i) ~app:(app i) ~hive:(i mod 3))
      done;
      let exists i = Registry.find_bee r (id i) <> None in
      let reference app dict =
        List.filter_map
          (fun i ->
            match Registry.find_bee r (id i) with
            | Some b
              when String.equal b.Registry.bee_app app
                   && Cell.Set.exists (fun (x : Cell.t) -> String.equal x.Cell.dict dict)
                        b.Registry.bee_cells ->
              Some (id i)
            | Some _ | None -> None)
          (List.init 8 Fun.id)
      in
      let agrees app dict =
        let want = reference app dict in
        let got = Registry.owners_of_dict r ~app ~dict in
        let again = Registry.owners_of_dict r ~app ~dict in
        if got <> want || again <> want then
          QCheck.Test.fail_reportf "owners_of_dict %s %s: [%s] then [%s], expected [%s]" app dict
            (String.concat ";" (List.map string_of_int got))
            (String.concat ";" (List.map string_of_int again))
            (String.concat ";" (List.map string_of_int want));
        true
      in
      List.for_all
        (fun op ->
          (match op with
           | Assign (i, cells) -> (
             if exists i then try Registry.assign r ~bee:(id i) cells with Invalid_argument _ -> ())
           | Unassign i -> Registry.unassign_bee r ~bee:(id i)
           | Reassign (a, b) ->
             if a <> b && exists a && exists b && String.equal (app a) (app b) then
               Registry.reassign_all r ~from_bee:(id a) ~to_bee:(id b)
           | Register _ | Set_hive _ -> ());
          List.for_all (fun (app, dict) -> agrees app dict)
            [ ("a", "d"); ("a", "e"); ("b", "d"); ("b", "e"); ("a", "none") ])
        ops)

(* A Foreach fan-out over 160 owners, one key each, allocates its owner
   list (three words an owner) and 10 words to walk the key table: no
   table of owners and no sort (5,430 words with them). The bound is the
   measured cost (OCaml 5.1.1, native code); raising it needs a reason. *)
let fanout_words_bound = 490.

let test_owners_of_dict_words () =
  let r = Registry.create () in
  for b = 0 to 159 do
    ignore (Registry.register_bee r ~bee_id:b ~app:"a" ~hive:(b mod 16));
    (* Keys in an order unlike the ids, so the table's order is not theirs. *)
    Registry.assign r ~bee:b (Cell.Set.singleton (c "d" (string_of_int ((b * 37) mod 160))))
  done;
  let expected = List.init 160 Fun.id in
  Alcotest.(check (list int))
    "every owner, by id" expected
    (Registry.owners_of_dict r ~app:"a" ~dict:"d");
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Registry.owners_of_dict r ~app:"a" ~dict:"d")
  done;
  let per_call = (Gc.minor_words () -. before) /. 100. in
  if per_call > fanout_words_bound then
    Alcotest.failf "%.2f words per 160-owner fan-out, bound %.0f" per_call fanout_words_bound

let suite =
  [
    ( "cell+registry",
      [
        Alcotest.test_case "cell intersects" `Quick test_cell_intersects;
        Alcotest.test_case "cell set intersects" `Quick test_cell_set_intersects;
        QCheck_alcotest.to_alcotest prop_wildcard_absorbs;
        QCheck_alcotest.to_alcotest prop_owners_of_dict;
        Alcotest.test_case "a 160-owner fan-out allocates its list" `Quick
          test_owners_of_dict_words;
        Alcotest.test_case "register and owners" `Quick test_register_and_owners;
        Alcotest.test_case "wildcard catches new keys" `Quick test_wildcard_owner_catches_new_keys;
        Alcotest.test_case "conflicting assign rejected" `Quick test_assign_conflict_rejected;
        Alcotest.test_case "reassign (merge)" `Quick test_reassign_merge;
        Alcotest.test_case "unassign releases cells" `Quick test_unassign;
        Alcotest.test_case "hive accounting" `Quick test_hive_accounting;
        QCheck_alcotest.to_alcotest prop_single_ownership;
        QCheck_alcotest.to_alcotest prop_hive_cell_count;
        QCheck_alcotest.to_alcotest prop_owners_match_scan;
        QCheck_alcotest.to_alcotest prop_key_path_matches_sets;
      ] );
  ]
