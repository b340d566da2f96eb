(* The routing decision on its own: registry, hive table, lookup cache
   and the registry's owner in, plan out — no engine, no platform. *)

module Cell = Beehive_core.Cell
module Registry = Beehive_core.Registry
module Hives = Beehive_core.Hives
module Route_plan = Beehive_core.Route_plan
module Mapping = Beehive_core.Mapping

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
  let m = Mapping.Cells cs in
  Route_plan.decide reg hives cache ~capacity ~app:"a" ~origin
    ~owner:(Route_plan.owner reg ~app:"a" m) m

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
  Route_plan.remember cache ~origin:0 ~app:"a" (Mapping.Cells cs) ~owner:0;
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
  let m = Mapping.Cells cs in
  Route_plan.remember cache ~origin:0 ~app:"a" m ~owner:0;
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Route_plan.invalidate cache;
    Route_plan.remember cache ~origin:0 ~app:"a" m ~owner:0
  done;
  let words = Gc.minor_words () -. before in
  if words > 2. then Alcotest.failf "%.0f words for 1,000 refreshes, bound 2" words;
  Alcotest.check plan "hit at the version remembered last" Route_plan.Use
    (decide env ~origin:0 cs);
  Route_plan.invalidate cache;
  Alcotest.check plan "stale once the version moves on" Route_plan.Lookup
    (decide env ~origin:0 cs)

(* A leg's plan costs nothing when its owner takes it: the owner holds
   both mapped wildcards among 100 cells, and [owner] plus [decide] walk
   the two cells against the registry's index with no subset, filter or
   closure, for the origin's own hive and for a remote origin whose
   lookup is cached. A [Key] leg's plan is as free. *)
let test_two_wildcards_plan_words () =
  let reg, hives, cache = setup [] in
  ignore (Registry.register_bee reg ~bee_id:0 ~app:"a" ~hive:0);
  Registry.assign reg ~bee:0
    (Cell.Set.of_list
       (Cell.whole "d" :: Cell.whole "e" :: List.init 98 (fun k -> c "f" (string_of_int k))));
  let two = Mapping.whole_dicts [ "d"; "e" ] and one = Mapping.with_key "f" "7" in
  let plan_of ~origin m =
    Route_plan.decide reg hives cache ~capacity:max_int ~app:"a" ~origin
      ~owner:(Route_plan.owner reg ~app:"a" m) m
  in
  Route_plan.remember cache ~origin:1 ~app:"a" two ~owner:0;
  Route_plan.remember cache ~origin:1 ~app:"a" one ~owner:0;
  List.iter
    (fun (what, m) ->
      List.iter
        (fun origin ->
          Alcotest.check plan (what ^ ": the owner takes it") Route_plan.Use (plan_of ~origin m);
          let before = Gc.minor_words () in
          for _ = 1 to 1_000 do
            ignore (Sys.opaque_identity (plan_of ~origin m))
          done;
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s from hive %d: words for 1,000 plans" what origin)
            0. (Gc.minor_words () -. before))
        [ 0; 1 ])
    [ ("two wildcards", two); ("one key", one) ]

(* One step of a random routing history. *)
type op =
  | Assign of int * Cell.Set.t
  | Unassign of int
  | Merge of int * int  (** from, into *)
  | Move of int * int  (** bee, hive *)
  | Crash of int
  | Drain of int
  | Remember of int * int * int  (** origin, key, owner *)
  | Invalidate

let show_op = function
  | Assign (b, cs) -> Format.asprintf "assign %d %a" b Cell.Set.pp cs
  | Unassign b -> Printf.sprintf "unassign %d" b
  | Merge (a, b) -> Printf.sprintf "merge %d->%d" a b
  | Move (b, h) -> Printf.sprintf "move %d@%d" b h
  | Crash h -> Printf.sprintf "crash %d" h
  | Drain h -> Printf.sprintf "drain %d" h
  | Remember (o, k, b) -> Printf.sprintf "remember %d d/%d=%d" o k b
  | Invalidate -> "invalidate"

(* The [Key] routing path against the singleton [Cells] of the same
   cell, after each step of a random history of keyed and wildcard
   assigns, removals, merges, moves, crashed and draining hives and
   cached lookups: for every keyed cell and origin, the owner and the
   plan must be equal. Six bees of one app start on hives 0 to 2; the
   capacity is small enough that placement sometimes finds no room. *)
let prop_key_plans_match_singletons =
  let keys = List.init 6 string_of_int in
  let cell =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun k -> c "d" (string_of_int k)) (int_bound 5));
          (2, map (fun k -> c "e" (string_of_int k)) (int_bound 2));
          (1, oneofl [ Cell.whole "d"; Cell.whole "e" ]);
        ])
  in
  let gen_op =
    QCheck.Gen.(
      let bee = int_bound 5 and hive = int_bound 3 in
      frequency
        [
          (6, map2 (fun b l -> Assign (b, Cell.Set.of_list l)) bee (list_size (1 -- 3) cell));
          (1, map (fun b -> Unassign b) bee);
          (1, map2 (fun a b -> Merge (a, b)) bee bee);
          (1, map2 (fun b h -> Move (b, h)) bee hive);
          (1, map (fun h -> Crash h) hive);
          (1, map (fun h -> Drain h) hive);
          (2, map3 (fun o k b -> Remember (o, k, b)) hive (int_bound 5) bee);
          (1, return Invalidate);
        ])
  in
  QCheck.Test.make ~name:"a Key leg's owner and plan equal its singleton's" ~count:500
    QCheck.(make ~print:Print.(list show_op) Gen.(list_size (0 -- 40) gen_op))
    (fun ops ->
      let reg = Registry.create () and hives = Hives.create 4 in
      let cache = Route_plan.create_cache () in
      for b = 0 to 5 do
        ignore (Registry.register_bee reg ~bee_id:b ~app:"a" ~hive:(b mod 3))
      done;
      let exists b = Registry.find_bee reg b <> None in
      let agrees () =
        List.for_all
          (fun key ->
            let m = Mapping.with_key "d" key
            and s = Mapping.Cells (Cell.Set.singleton (c "d" key)) in
            let owner = Route_plan.owner reg ~app:"a" m in
            if owner <> Route_plan.owner reg ~app:"a" s then
              QCheck.Test.fail_reportf "owner of d/%s differs" key;
            List.for_all
              (fun origin ->
                let decide m =
                  Route_plan.decide reg hives cache ~capacity:4 ~app:"a" ~origin ~owner m
                in
                let by_key = decide m and by_set = decide s in
                if not (Alcotest.equal plan by_key by_set) then
                  QCheck.Test.fail_reportf "d/%s from hive %d: key %a, set %a" key origin
                    (Alcotest.pp plan) by_key (Alcotest.pp plan) by_set;
                true)
              [ 0; 1; 2; 3 ])
          keys
      in
      List.for_all
        (fun op ->
          (match op with
          | Assign (b, cs) -> (
            if exists b then try Registry.assign reg ~bee:b cs with Invalid_argument _ -> ())
          | Unassign b -> Registry.unassign_bee reg ~bee:b
          | Merge (a, b) ->
            if a <> b && exists a && exists b then Registry.reassign_all reg ~from_bee:a ~to_bee:b
          | Move (b, h) -> if exists b then Registry.set_hive reg ~bee:b ~hive:h
          | Crash h -> ignore (Hives.crash hives h ~mark:0)
          | Drain h -> ignore (Hives.set_draining hives h true)
          | Remember (origin, k, owner) ->
            Route_plan.remember cache ~origin ~app:"a"
              (Mapping.with_key "d" (string_of_int k))
              ~owner
          | Invalidate -> Route_plan.invalidate cache);
          agrees ())
        ops)

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
        Alcotest.test_case "a two-wildcard mapping against a 100-cell owner allocates 0 words"
          `Quick test_two_wildcards_plan_words;
        QCheck_alcotest.to_alcotest prop_key_plans_match_singletons;
      ] );
  ]
