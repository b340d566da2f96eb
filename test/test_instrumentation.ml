(* Instrumentation app and the greedy placement optimizer. *)

open Helpers
module Instrumentation = Beehive_core.Instrumentation

(* Build a platform with the kv app plus instrumentation, then push a
   steady stream of puts from one hive toward keys created elsewhere. *)
let setup ~optimize () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:4) in
  Platform.register_app platform (kv_app ());
  let handle =
    Instrumentation.install platform
      {
        Instrumentation.default_config with
        optimize;
        policy = Instrumentation.greedy_source_policy ~min_messages:3;
      }
  in
  Platform.start platform;
  (engine, platform, handle)

let stream engine platform ~from ~key ~seconds =
  (* One put per 100 ms from [from]. *)
  let h =
    Engine.every engine (Simtime.of_ms 100) (fun () ->
        put platform ~from ~key ~value:1)
  in
  run_for engine seconds;
  ignore (Engine.cancel engine h)

let test_loads_aggregated () =
  let engine, platform, handle = setup ~optimize:false () in
  put platform ~from:2 ~key:"k" ~value:1;
  drain engine;
  stream engine platform ~from:2 ~key:"k" ~seconds:3.0;
  let loads = Instrumentation.loads handle in
  let kv_loads =
    List.filter
      (fun l ->
        (Option.get (Platform.bee_view platform l.Instrumentation.bl_bee)).Platform.view_app
        = "test.kv")
      loads
  in
  Alcotest.(check bool) "kv bee observed" true (kv_loads <> []);
  let l = List.hd kv_loads in
  Alcotest.(check bool) "traffic from hive 2 recorded" true
    (List.mem_assoc 2 l.Instrumentation.bl_in_by_hive)

(* [loads] is the view the optimizer is handed: a bee moved since its
   last report shows its live hive, and each entry's processed count is
   the truncated sum of its decayed per-hive counts. *)
let test_loads_is_optimizer_view () =
  let engine, platform, handle = setup ~optimize:false () in
  put platform ~from:0 ~key:"k" ~value:1;
  drain engine;
  (* Reports at 2 s and 3 s name the bee on hive 0; read before 4 s. *)
  stream engine platform ~from:2 ~key:"k" ~seconds:2.5;
  let bee = owner_exn platform ~app:"test.kv" "k" in
  let hive_in loads =
    List.find_map
      (fun (l : Instrumentation.bee_load) -> if l.bl_bee = bee then Some l.bl_hive else None)
      loads
  in
  Alcotest.(check (option int)) "reported on hive 0" (Some 0)
    (hive_in (Instrumentation.loads handle));
  Alcotest.(check bool) "moved" true
    (Platform.migrate_bee platform ~bee ~to_hive:1 ~reason:"test");
  run_for engine 0.1;
  let loads = Instrumentation.loads handle in
  Alcotest.(check (option int)) "loads shows the live hive" (Some 1) (hive_in loads);
  List.iter
    (fun (l : Instrumentation.bee_load) ->
      Alcotest.(check (option int))
        (Printf.sprintf "bee %d on its live hive" l.bl_bee)
        (Platform.live_bee_hive platform l.bl_bee) (Some l.bl_hive);
      Alcotest.(check int)
        (Printf.sprintf "bee %d processed is its per-hive sum" l.bl_bee)
        (int_of_float (List.fold_left (fun a (_, c) -> a +. c) 0.0 l.bl_in_by_hive))
        l.bl_processed)
    loads

let test_optimizer_migrates_toward_majority () =
  let engine, platform, handle = setup ~optimize:true () in
  (* Create the bee on hive 0 but feed it from hive 3. *)
  put platform ~from:0 ~key:"k" ~value:1;
  drain engine;
  let bee = owner_exn platform ~app:"test.kv" "k" in
  Alcotest.(check int) "starts on hive 0" 0
    (Option.get (Platform.bee_view platform bee)).Platform.view_hive;
  stream engine platform ~from:3 ~key:"k" ~seconds:12.0;
  Alcotest.(check bool) "optimizer migrated" true
    (Instrumentation.performed_migrations handle > 0);
  Alcotest.(check int) "migrated to the traffic source" 3
    (Option.get (Platform.bee_view platform bee)).Platform.view_hive;
  (* After the move, no further migration: it's already local. *)
  let n = List.length (Platform.migrations platform) in
  stream engine platform ~from:3 ~key:"k" ~seconds:12.0;
  Alcotest.(check int) "stable placement" n (List.length (Platform.migrations platform))

let test_optimizer_disabled_never_migrates () =
  let engine, platform, handle = setup ~optimize:false () in
  put platform ~from:0 ~key:"k" ~value:1;
  drain engine;
  stream engine platform ~from:3 ~key:"k" ~seconds:12.0;
  Alcotest.(check int) "no migrations performed" 0 (Instrumentation.performed_migrations handle);
  Alcotest.(check int) "no migrations" 0 (List.length (Platform.migrations platform))

let test_optimizer_ignores_balanced_traffic () =
  let engine, platform, _ = setup ~optimize:true () in
  put platform ~from:0 ~key:"k" ~value:1;
  drain engine;
  (* Feed evenly from two foreign hives: no majority, no migration away
     from... well, hive 2 and 3 alternate so neither passes 50%+ against
     each other plus the current hive. *)
  let flip = ref false in
  let h =
    Engine.every engine (Simtime.of_ms 100) (fun () ->
        flip := not !flip;
        put platform ~from:(if !flip then 2 else 3) ~key:"k" ~value:1)
  in
  run_for engine 12.0;
  ignore (Engine.cancel engine h);
  let v = Option.get (Platform.bee_view platform (owner_exn platform ~app:"test.kv" "k")) in
  Alcotest.(check int) "no clear majority -> stays" 0 v.Platform.view_hive

let test_max_migrations_per_round () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:4) in
  Platform.register_app platform (kv_app ());
  let handle =
    Instrumentation.install platform
      {
        Instrumentation.default_config with
        optimize = true;
        policy = Instrumentation.greedy_source_policy ~min_messages:3;
      }
  in
  Platform.start platform;
  (* More candidates than the per-round budget: 70 bees on hive 0, all
     fed from hive 1. *)
  let keys = List.init 70 (Printf.sprintf "k%d") in
  List.iter (fun key -> put platform ~from:0 ~key ~value:1) keys;
  drain engine;
  let h =
    Engine.every engine (Simtime.of_ms 200) (fun () ->
        List.iter (fun key -> put platform ~from:1 ~key ~value:1) keys)
  in
  (* One optimization round fires at t=5s. *)
  Engine.run_until engine (Simtime.of_sec 6.0);
  ignore (Engine.cancel engine h);
  Alcotest.(check int) "budget is 64" 64 Instrumentation.max_migrations_per_round;
  Alcotest.(check int) "budget exhausted, every decision accepted" 64
    (Instrumentation.performed_migrations handle);
  Alcotest.(check int) "the platform moved exactly those" 64
    (List.length (Platform.migrations platform))

type Message.payload += Idle of int

(* An app whose bees each handle one message and then sit idle. *)
let idle_app =
  App.create ~name:"test.idle" ~dicts:[ "idle" ]
    [
      App.handler ~kind:"test.idle"
        ~map:(fun msg ->
          match msg.Message.payload with
          | Idle i -> Mapping.with_key "idle" (string_of_int i)
          | _ -> Mapping.Drop)
        (fun _ _ -> ());
    ]

(* Each optimization round halves the stored counts in hive order,
   drops a count that falls under 0.25, and deletes a bee's entry once
   every count has faded. Traffic stops before the first round (5 s), so
   each round from then on only decays. *)
let test_rounds_decay_history () =
  let engine, platform, handle = setup ~optimize:false () in
  put platform ~from:0 ~key:"k" ~value:1;
  drain engine;
  stream engine platform ~from:2 ~key:"k" ~seconds:2.0;
  let bee = owner_exn platform ~app:"test.kv" "k" in
  let counts () =
    List.find_map
      (fun (l : Instrumentation.bee_load) ->
        if l.bl_bee = bee then Some l.bl_in_by_hive else None)
      (Instrumentation.loads handle)
  in
  let decayed l =
    List.filter (fun (_, c) -> c >= 0.25) (List.map (fun (h, c) -> (h, c *. 0.5)) l)
  in
  let same = Alcotest.(option (list (pair int (float 0.0)))) in
  Engine.run_until engine (Simtime.of_sec 4.5);
  let before = Option.get (counts ()) in
  Alcotest.(check (list int)) "counts from hives 0 and 2" [ 0; 2 ] (List.map fst before);
  let rec rounds r expected ~dropped =
    let expected = decayed expected in
    Engine.run_until engine (Simtime.of_sec ((5.0 *. float_of_int r) +. 0.5));
    let label = Printf.sprintf "after round %d" r in
    match expected with
    | [] ->
      Alcotest.(check same) label None (counts ());
      Alcotest.(check bool) "one count dropped before the rest" true dropped
    | _ ->
      Alcotest.(check same) label (Some expected) (counts ());
      rounds (r + 1) expected ~dropped:(dropped || List.length expected = 1)
  in
  rounds 1 before ~dropped:false

(* The words allocated across one collect round (the collect tick at
   7 s, its report and the aggregator's merge) on a one-hive platform
   with one busy kv bee and [idle] idle bees. The idle bees' only
   messages come from the system, with no source hive, so the first
   optimization round (5 s) forgets them: the measured round reports and
   merges the busy bee alone, whatever [idle] is. *)
let collect_round_words ~idle =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:1) in
  Platform.register_app platform (kv_app ());
  Platform.register_app platform idle_app;
  ignore
    (Instrumentation.install platform { Instrumentation.default_config with optimize = false });
  Platform.start platform;
  for i = 1 to idle do
    Platform.emit_system platform ~hive:0 ~size:64 ~kind:"test.idle" (Idle i)
  done;
  ignore
    (Engine.every engine (Simtime.of_ms 100) (fun () -> put platform ~from:0 ~key:"k" ~value:1));
  Engine.run_until engine (Simtime.of_sec 6.5);
  Alcotest.(check int) "live bees" (idle + 3) (List.length (Platform.live_bees platform));
  let before = Gc.minor_words () in
  Engine.run_until engine (Simtime.of_sec 7.5);
  Gc.minor_words () -. before

let test_collect_cost_ignores_idle_bees () =
  let alone = collect_round_words ~idle:0 and crowded = collect_round_words ~idle:500 in
  if Float.abs (crowded -. alone) > 64.0 then
    Alcotest.failf "a collect round allocates %.0f words beside 500 idle bees, %.0f alone"
      crowded alone;
  (* 1,082 words: a report carries each bee's window counts and nothing
     copied beside them, and the aggregator's merge builds no closure. *)
  if alone > 1082.0 then
    Alcotest.failf "a collect round allocates %.0f words, more than 1082" alone

let suite =
  [
    ( "instrumentation",
      [
        Alcotest.test_case "loads aggregated" `Quick test_loads_aggregated;
        Alcotest.test_case "loads is the optimizer's view" `Quick test_loads_is_optimizer_view;
        Alcotest.test_case "optimizer migrates toward majority" `Quick
          test_optimizer_migrates_toward_majority;
        Alcotest.test_case "optimizer disabled" `Quick test_optimizer_disabled_never_migrates;
        Alcotest.test_case "balanced traffic stays put" `Quick
          test_optimizer_ignores_balanced_traffic;
        Alcotest.test_case "max migrations per round" `Quick test_max_migrations_per_round;
        Alcotest.test_case "rounds decay the history" `Quick test_rounds_decay_history;
        Alcotest.test_case "collect cost ignores idle bees" `Quick
          test_collect_cost_ignores_idle_bees;
      ] );
  ]
