(* The routing decision on its own: registry, hive table, lookup cache
   and the registry's owner in, plan out — no engine, no platform. *)

module Cell = Beehive_core.Cell
module Registry = Beehive_core.Registry
module Hives = Beehive_core.Hives
module Route_plan = Beehive_core.Route_plan

let c = Cell.cell
let cells keys = Cell.Set.of_list (List.map (Cell.cell "d") keys)

(* A registry of app "a" where bee [i] lives on [hive] and owns [keys]. *)
let setup ?(n_hives = 3) bees =
  let reg = Registry.create () in
  List.iteri
    (fun i (hive, keys) ->
      ignore (Registry.register_bee reg ~bee_id:i ~app:"a" ~hive);
      Registry.assign reg ~bee:i (cells keys))
    bees;
  (reg, Hives.create n_hives, Route_plan.create_cache ())

(* The platform's call: the owner is looked up once, then decided on. *)
let decide ?(capacity = max_int) (reg, hives, cache) ~origin cs =
  Route_plan.decide reg hives cache ~capacity ~app:"a" ~origin
    ~owner:(Registry.owner reg ~app:"a" cs) cs

let plan =
  Alcotest.testable
    (fun ppf -> function
      | Route_plan.Use -> Format.fprintf ppf "Use"
      | Route_plan.Lookup -> Format.fprintf ppf "Lookup"
      | Route_plan.Claim cells -> Format.fprintf ppf "Claim %d" (Cell.Set.cardinal cells)
      | Route_plan.Create h -> Format.fprintf ppf "Create %d" h
      | Route_plan.Merge { winner; losers } ->
        Format.fprintf ppf "Merge %d <- [%s]" winner
          (String.concat ";" (List.map string_of_int losers))
      | Route_plan.Drop -> Format.fprintf ppf "Drop")
    (fun a b ->
      match (a, b) with
      | Route_plan.Claim a, Route_plan.Claim b -> Cell.Set.equal a b
      | _ -> a = b)

let test_no_owner_creates_on_origin () =
  let env = setup [] in
  Alcotest.check plan "new bee on the origin" (Route_plan.Create 1)
    (decide env ~origin:1 (cells [ "x" ]))

let test_draining_origin_places_least_loaded () =
  let ((_, hives, _) as env) = setup [ (1, [ "p"; "q" ]); (2, [ "r" ]) ] in
  ignore (Hives.set_draining hives 0 true);
  Alcotest.check plan "fewest cells among placeable hives" (Route_plan.Create 2)
    (decide env ~origin:0 (cells [ "x" ]))

(* The shared rule on its own: [exclude] and a full hive are skipped,
   ties go to the lowest id, and no qualifying hive is [None]. *)
let test_least_loaded_rule () =
  let reg, hives, _ = setup ~n_hives:4 [ (0, [ "a"; "b" ]); (1, [ "c" ]); (3, [ "d" ]) ] in
  let pick ?(capacity = max_int) ~exclude ~cells () =
    Route_plan.least_loaded reg hives ~capacity ~exclude ~cells
  in
  Alcotest.(check (option int)) "empty hive first" (Some 2) (pick ~exclude:(-1) ~cells:1 ());
  Alcotest.(check (option int)) "tie goes to the lowest id" (Some 1)
    (pick ~exclude:2 ~cells:1 ());
  Alcotest.(check (option int)) "no room on one-cell hives" (Some 2)
    (pick ~capacity:2 ~exclude:0 ~cells:2 ());
  ignore (Hives.set_draining hives 2 true);
  Alcotest.(check (option int)) "no placeable hive has room" None
    (pick ~capacity:2 ~exclude:0 ~cells:2 ());
  let env = (reg, hives, Route_plan.create_cache ()) in
  Alcotest.check plan "a redirected new bee takes the rule's pick" (Route_plan.Create 1)
    (decide ~capacity:2 env ~origin:2 (cells [ "x" ]));
  Alcotest.check plan "no hive has room: it stays on its origin" (Route_plan.Create 2)
    (decide ~capacity:2 env ~origin:2 (cells [ "x"; "y" ]))

let test_single_owner_claims_wildcard () =
  let env = setup [ (0, [ "x" ]) ] in
  let whole = Cell.Set.singleton (Cell.whole "d") in
  Alcotest.check plan "owner claims the wildcard" (Route_plan.Claim whole)
    (decide env ~origin:0 whole);
  Alcotest.check plan "owned cell: nothing to claim" Route_plan.Use
    (decide env ~origin:0 (Cell.Set.singleton (c "d" "x")))

let test_merge_winner_most_cells_lowest_id () =
  let env = setup [ (0, [ "a" ]); (1, [ "b"; "c" ]); (2, [ "d"; "e" ]) ] in
  Alcotest.check plan "two-cell bees tie, lower id wins"
    (Route_plan.Merge { winner = 1; losers = [ 2; 0 ] })
    (decide env ~origin:0 (cells [ "a"; "b"; "d" ]))

let test_crashed_owner_never_wins () =
  let ((_, hives, _) as env) = setup [ (0, [ "a" ]); (1, [ "b"; "c"; "d" ]) ] in
  ignore (Hives.crash hives 1 ~mark:0);
  Alcotest.check plan "the larger bee is on a crashed hive"
    (Route_plan.Merge { winner = 0; losers = [ 1 ] })
    (decide env ~origin:0 (cells [ "a"; "b" ]));
  ignore (Hives.crash hives 0 ~mark:0);
  Alcotest.check plan "every owner crashed" Route_plan.Drop
    (decide env ~origin:2 (cells [ "a"; "b" ]))

let test_remote_owner_lookup_per_version () =
  let ((_, _, cache) as env) = setup [ (1, [ "x" ]) ] in
  let cs = cells [ "x" ] in
  Alcotest.check plan "local owner: no lookup" Route_plan.Use (decide env ~origin:1 cs);
  Alcotest.check plan "remote owner, cold cache" Route_plan.Lookup (decide env ~origin:0 cs);
  Route_plan.remember cache ~origin:0 ~app:"a" cs ~owner:0;
  Alcotest.check plan "cache hit at the same version" Route_plan.Use (decide env ~origin:0 cs);
  Route_plan.invalidate cache;
  Alcotest.check plan "stale after a registry change" Route_plan.Lookup
    (decide env ~origin:0 cs)

(* Remembering a cached key again refreshes its entry in place: the
   decision follows the latest version remembered, and the refresh
   allocates nothing. *)
let test_remember_refreshes_in_place () =
  let ((_, _, cache) as env) = setup [ (1, [ "x" ]) ] in
  let cs = cells [ "x" ] in
  Route_plan.remember cache ~origin:0 ~app:"a" cs ~owner:0;
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Route_plan.invalidate cache;
    Route_plan.remember cache ~origin:0 ~app:"a" cs ~owner:0
  done;
  let words = Gc.minor_words () -. before in
  if words > 2. then Alcotest.failf "%.0f words for 1,000 refreshes, bound 2" words;
  Alcotest.check plan "hit at the version remembered last" Route_plan.Use
    (decide env ~origin:0 cs);
  Route_plan.invalidate cache;
  Alcotest.check plan "stale once the version moves on" Route_plan.Lookup
    (decide env ~origin:0 cs)

let suite =
  [
    ( "route plan",
      [
        Alcotest.test_case "no owner: create on origin" `Quick test_no_owner_creates_on_origin;
        Alcotest.test_case "draining origin: least-loaded hive" `Quick
          test_draining_origin_places_least_loaded;
        Alcotest.test_case "least-loaded rule: room, exclude, ties" `Quick
          test_least_loaded_rule;
        Alcotest.test_case "single owner claims wildcard" `Quick
          test_single_owner_claims_wildcard;
        Alcotest.test_case "merge: most cells, lowest id" `Quick
          test_merge_winner_most_cells_lowest_id;
        Alcotest.test_case "crashed owner never wins" `Quick test_crashed_owner_never_wins;
        Alcotest.test_case "remote owner: one lookup per version" `Quick
          test_remote_owner_lookup_per_version;
        Alcotest.test_case "remember refreshes in place" `Quick test_remember_refreshes_in_place;
      ] );
  ]
