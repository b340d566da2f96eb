(* Message provenance/causation traces. *)

open Helpers
module Trace = Beehive_core.Trace

(* ping -> pong -> pang: a three-stage causal chain. *)
let chain_app =
  App.create ~name:"test.chain" ~dicts:[ "store" ]
    [
      App.handler ~kind:"test.ping"
        ~map:(fun _ -> Mapping.with_key "store" "x")
        (fun ctx _ -> Context.emit ctx ~kind:"test.pong" (Noop 1));
      App.handler ~kind:"test.pong"
        ~map:(fun _ -> Mapping.with_key "store" "x")
        (fun ctx _ ->
          Context.emit ctx ~kind:"test.pang" (Noop 2);
          Context.emit ctx ~kind:"test.pang" (Noop 3));
      App.handler ~kind:"test.pang"
        ~map:(fun _ -> Mapping.with_key "store" "x")
        (fun _ _ -> ());
    ]

let setup () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:2) in
  Platform.register_app platform chain_app;
  let trace = Trace.attach platform ~capacity:65_536 in
  Platform.start platform;
  (engine, platform, trace)

let find_by_kind trace kind =
  List.filter (fun ev -> ev.Trace.ev_kind = kind) (Trace.events trace)

let test_chain_recorded () =
  let engine, platform, trace = setup () in
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:"test.ping" (Noop 0);
  drain engine;
  let pangs = find_by_kind trace "test.pang" in
  Alcotest.(check int) "two pangs" 2 (List.length pangs);
  let chain = Trace.chain trace (List.hd pangs).Trace.ev_msg in
  Alcotest.(check (list string)) "root-first causal chain"
    [ "test.ping"; "test.pong"; "test.pang" ]
    (List.map (fun e -> e.Trace.ev_kind) chain);
  (* The root is the injected message: its source is the endpoint. *)
  (match chain with
  | root :: _ ->
    Alcotest.(check bool) "root injected" true
      (root.Trace.ev_emitter = Message.From_endpoint (Channels.Hive 0));
    Alcotest.(check bool) "root has no parent" true (root.Trace.ev_parent = None)
  | [] -> Alcotest.fail "empty chain");
  (* children of the pong are the two pangs. *)
  let pong = List.hd (find_by_kind trace "test.pong") in
  Alcotest.(check int) "pong caused two" 2 (List.length (Trace.children trace pong.Trace.ev_msg))

let test_causation_ratio () =
  let engine, platform, trace = setup () in
  for _ = 1 to 5 do
    Platform.inject platform ~from:(Channels.Hive 0) ~kind:"test.ping" (Noop 0)
  done;
  drain engine;
  Alcotest.(check (option (float 0.001))) "1 pong per ping" (Some 1.0)
    (Trace.causation_ratio trace ~in_kind:"test.ping" ~out_kind:"test.pong");
  Alcotest.(check (option (float 0.001))) "2 pangs per pong" (Some 2.0)
    (Trace.causation_ratio trace ~in_kind:"test.pong" ~out_kind:"test.pang");
  Alcotest.(check (option (float 0.001))) "no pang from ping directly" (Some 0.0)
    (Trace.causation_ratio trace ~in_kind:"test.ping" ~out_kind:"test.pang");
  Alcotest.(check bool) "unknown kind" true
    (Trace.causation_ratio trace ~in_kind:"nope" ~out_kind:"test.pong" = None)

let test_ring_eviction () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:2) in
  Platform.register_app platform chain_app;
  let trace = Trace.attach platform ~capacity:10 in
  Platform.start platform;
  for _ = 1 to 20 do
    Platform.inject platform ~from:(Channels.Hive 0) ~kind:"test.ping" (Noop 0)
  done;
  drain engine;
  Alcotest.(check bool) "bounded" true (Trace.recorded trace <= 10);
  (* Old roots evicted: a late pang's chain is truncated but intact. *)
  let pangs = find_by_kind trace "test.pang" in
  Alcotest.(check bool) "recent events survive" true (pangs <> [])

(* The paper's Section 3 provenance statistic, read from the trace: ten
   pings give the ping-pong app exactly ten ping -> pong edges. *)
let test_provenance_edges () =
  let app =
    App.create ~name:"test.pingpong" ~dicts:[ "store" ]
      [
        App.handler ~kind:"test.ping"
          ~map:(fun _ -> Mapping.with_key "store" "x")
          (fun ctx _ -> Context.emit ctx ~kind:"test.pong" (Noop 0));
      ]
  in
  let engine, platform = make_platform ~apps:[ app ] () in
  let trace = Trace.attach platform ~capacity:65_536 in
  for _ = 1 to 10 do
    Platform.inject platform ~from:(Channels.Hive 0) ~kind:"test.ping" (Noop 1)
  done;
  drain engine;
  let events = Trace.events trace in
  let kind_of id =
    List.find_map (fun e -> if e.Trace.ev_msg = id then Some e.Trace.ev_kind else None) events
  in
  let edges =
    List.filter
      (fun e ->
        match (e.Trace.ev_emitter, e.Trace.ev_parent) with
        | Message.From_bee { app = "test.pingpong"; _ }, Some parent ->
          e.Trace.ev_kind = "test.pong" && kind_of parent = Some "test.ping"
        | _ -> false)
      events
  in
  Alcotest.(check int) "test.ping -> test.pong edges of test.pingpong" 10 (List.length edges)

let test_render_tree () =
  let engine, platform, trace = setup () in
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:"test.ping" (Noop 0);
  drain engine;
  let root = List.hd (find_by_kind trace "test.ping") in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Trace.render_tree trace fmt root.Trace.ev_msg;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions all kinds" true
    (List.for_all contains [ "test.ping"; "test.pong"; "test.pang" ])

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "causal chain recorded" `Quick test_chain_recorded;
        Alcotest.test_case "causation ratios" `Quick test_causation_ratio;
        Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
        Alcotest.test_case "render tree" `Quick test_render_tree;
        Alcotest.test_case "provenance edges by emitter app" `Quick test_provenance_edges;
      ] );
  ]
