(* Placement policies and the external-datastore baseline. *)

open Helpers
module Instrumentation = Beehive_core.Instrumentation
module Ext_store = Beehive_core.Ext_store

let load ~bee ~hive ~processed ~in_by_hive =
  {
    Instrumentation.bl_bee = bee;
    bl_hive = hive;
    bl_processed = processed;
    bl_in_by_hive = in_by_hive;
  }

(* A dummy platform for policies that only need hive counts. *)
let dummy_platform ?(n_hives = 4) () =
  let _, platform = make_platform ~n_hives () in
  platform

let test_greedy_policy_decisions () =
  let platform = dummy_platform () in
  let p = Instrumentation.greedy_source_policy ~min_messages:5 in
  let decisions =
    p platform
      [
        (* clear majority from hive 2: migrate *)
        load ~bee:1 ~hive:0 ~processed:10 ~in_by_hive:[ (0, 1.0); (2, 9.0) ];
        (* balanced: stay *)
        load ~bee:2 ~hive:0 ~processed:10 ~in_by_hive:[ (2, 5.0); (3, 5.0) ];
        (* too little data: stay *)
        load ~bee:3 ~hive:0 ~processed:2 ~in_by_hive:[ (2, 2.0) ];
        (* majority is the current hive: stay *)
        load ~bee:4 ~hive:2 ~processed:10 ~in_by_hive:[ (2, 9.0); (0, 1.0) ];
      ]
  in
  (* Policies run on the abstract view, so bee 1 is proposed even though
     this dummy platform has no such bee (migrate_bee later rejects). *)
  match decisions with
  | [ d ] ->
    Alcotest.(check int) "bee" 1 d.Instrumentation.d_bee;
    Alcotest.(check int) "target" 2 d.Instrumentation.d_to_hive
  | l -> Alcotest.failf "expected one decision, got %d" (List.length l)

(* A decision's reason prints the share as [Printf]'s "%.0f%%" does,
   a tie rounding as the C library rounds it. *)
let test_greedy_reason_text () =
  let platform = dummy_platform () in
  let p = Instrumentation.greedy_source_policy ~min_messages:5 in
  let reason in_by_hive =
    match p platform [ load ~bee:1 ~hive:0 ~processed:10 ~in_by_hive ] with
    | [ d ] -> d.Instrumentation.d_reason
    | l -> Alcotest.failf "expected one decision, got %d" (List.length l)
  in
  Alcotest.(check string) "nine in ten" "optimizer: 90% of traffic from hive 3"
    (reason [ (0, 1.0); (3, 9.0) ]);
  Alcotest.(check string) "five in eight, a tie"
    (Printf.sprintf "optimizer: %.0f%% of traffic from hive %d" 62.5 2)
    (reason [ (0, 3.0); (2, 5.0) ])

let test_load_balance_policy () =
  let platform = dummy_platform () in
  let p = Instrumentation.load_balance_policy in
  (* Hive 0 does 300 of 330 total: imbalance, shed its lightest bee. *)
  let decisions =
    p platform
      [
        load ~bee:1 ~hive:0 ~processed:200 ~in_by_hive:[ (0, 200.0) ];
        load ~bee:2 ~hive:0 ~processed:100 ~in_by_hive:[ (0, 100.0) ];
        load ~bee:3 ~hive:1 ~processed:30 ~in_by_hive:[ (1, 30.0) ];
      ]
  in
  (match decisions with
  | [ d ] ->
    Alcotest.(check int) "sheds lightest hot bee" 2 d.Instrumentation.d_bee;
    Alcotest.(check bool) "to a calm hive" true (d.Instrumentation.d_to_hive <> 0)
  | l -> Alcotest.failf "expected one decision, got %d" (List.length l));
  (* Balanced cluster: no decision. *)
  let none =
    p platform
      [
        load ~bee:1 ~hive:0 ~processed:100 ~in_by_hive:[ (0, 100.0) ];
        load ~bee:2 ~hive:1 ~processed:100 ~in_by_hive:[ (1, 100.0) ];
        load ~bee:3 ~hive:2 ~processed:100 ~in_by_hive:[ (2, 100.0) ];
        load ~bee:4 ~hive:3 ~processed:100 ~in_by_hive:[ (3, 100.0) ];
      ]
  in
  Alcotest.(check int) "balanced -> none" 0 (List.length none)

let test_combined_policy_first_wins () =
  let platform = dummy_platform () in
  let p1 : Instrumentation.policy =
   fun _ _ -> [ { Instrumentation.d_bee = 1; d_to_hive = 2; d_reason = "p1" } ]
  in
  let p2 : Instrumentation.policy =
   fun _ _ ->
    [
      { Instrumentation.d_bee = 1; d_to_hive = 3; d_reason = "p2" };
      { Instrumentation.d_bee = 9; d_to_hive = 3; d_reason = "p2" };
    ]
  in
  match Instrumentation.combined_policy [ p1; p2 ] platform [] with
  | [ a; b ] ->
    Alcotest.(check string) "bee 1 kept from p1" "p1" a.Instrumentation.d_reason;
    Alcotest.(check int) "bee 9 from p2" 9 b.Instrumentation.d_bee
  | l -> Alcotest.failf "expected two decisions, got %d" (List.length l)

let test_load_balance_end_to_end () =
  (* Six busy bees crammed on hive 0 with purely local traffic: the
     greedy source policy would never move them; load-balance does. *)
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:4) in
  Platform.register_app platform (kv_app ());
  let handle =
    Instrumentation.install platform
      {
        Instrumentation.default_config with
        optimize = true;
        policy = Instrumentation.load_balance_policy;
      }
  in
  Platform.start platform;
  for i = 0 to 5 do
    put platform ~from:0 ~key:(Printf.sprintf "k%d" i) ~value:1
  done;
  drain engine;
  let h =
    Engine.every engine (Simtime.of_ms 100) (fun () ->
        for i = 0 to 5 do
          put platform ~from:0 ~key:(Printf.sprintf "k%d" i) ~value:1
        done)
  in
  Engine.run_until engine (Simtime.of_sec 20.0);
  ignore (Engine.cancel engine h);
  Alcotest.(check bool) "load-balance migrated bees off hive 0" true
    (Instrumentation.performed_migrations handle > 0);
  let hives =
    List.filter_map
      (fun (v : Platform.bee_view) ->
        if v.Platform.view_app = "test.kv" then Some v.Platform.view_hive else None)
      (Platform.live_bees platform)
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check bool) "bees now on several hives" true (List.length hives > 1)

(* --- external store ---------------------------------------------------- *)

let test_ext_store_roundtrip () =
  let engine, platform = make_platform ~n_hives:4 () in
  let store = Ext_store.create platform in
  let got = ref None in
  Ext_store.put store ~from_hive:3 ~key:"k" (Value.V_int 42) (fun () ->
      Ext_store.get store ~from_hive:3 ~key:"k" (fun v -> got := v));
  Alcotest.(check bool) "async: nothing yet" true (!got = None);
  drain engine;
  (match !got with
  | Some (Value.V_int 42) -> ()
  | _ -> Alcotest.fail "value did not round-trip");
  (* Two round trips from hive 3 to the key's shard on hives 0-2: the put
     (32 + 8 B, 16 B ack) and the get (32 B, 16 + 8 B reply). *)
  Alcotest.(check (float 0.)) "2 rpcs charged" 112.0
    (Beehive_net.Traffic_matrix.off_diagonal_bytes
       (Channels.matrix (Platform.channels platform)));
  Alcotest.(check int) "1 key" 1 (Ext_store.fold_keys store (fun _ _ n -> n + 1) 0)

let test_ext_store_charges_channel () =
  let engine, platform = make_platform ~n_hives:4 () in
  let store = Ext_store.create platform in
  (* The shard is on hives 0-2; a client on hive 3 must cross the
     control channel to reach it. *)
  let matrix = Channels.matrix (Platform.channels platform) in
  let before = Beehive_net.Traffic_matrix.row_bytes matrix 3 in
  Ext_store.put store ~from_hive:3 ~key:"k" (Value.V_string (String.make 100 'x')) (fun () -> ());
  drain engine;
  let after = Beehive_net.Traffic_matrix.row_bytes matrix 3 in
  Alcotest.(check bool) "payload crossed the control channel" true (after -. before > 100.0);
  Alcotest.(check bool) "latency recorded" true
    (Ext_store.rpc_latency_percentile store 0.5 <> None)

let test_ext_store_update () =
  let engine, platform = make_platform ~n_hives:4 () in
  let store = Ext_store.create platform in
  let bump prev =
    match prev with Some (Value.V_int n) -> Value.V_int (n + 1) | _ -> Value.V_int 1
  in
  Ext_store.update store ~from_hive:1 ~key:"c" bump (fun _ -> ());
  drain engine;
  Ext_store.update store ~from_hive:2 ~key:"c" bump (fun _ -> ());
  drain engine;
  let v = Ext_store.fold_keys store (fun k v acc -> if k = "c" then Some v else acc) None in
  match v with
  | Some (Value.V_int 2) -> ()
  | _ -> Alcotest.fail "read-modify-write lost an update"

let test_te_external_scenario () =
  let module Scenario = Beehive_harness.Scenario in
  let cfg =
    {
      Scenario.quick_config with
      Scenario.n_hives = 4;
      n_switches = 12;
      flows_per_switch = 10;
      hot_fraction = 0.2;
      flow_start_spread = 3.0;
      warmup = Simtime.of_sec 3.0;
      duration = Simtime.of_sec 6.0;
      te = Scenario.Te_external;
    }
  in
  let sc = Scenario.build cfg in
  Scenario.run sc;
  let store = Option.get (Scenario.ext_store sc) in
  Alcotest.(check bool) "store holds per-switch records" true
    (Ext_store.fold_keys store (fun _ _ n -> n + 1) 0 >= 12);
  Alcotest.(check bool) "re-routes happened through the store" true
    (Beehive_apps.Te_external.rerouted_count store > 0);
  (* The whole point: way more control-channel traffic than the
     cell-based design. *)
  let ext = Beehive_harness.Summary.of_scenario sc in
  let dec =
    let sc = Scenario.build { cfg with Scenario.te = Scenario.Te_decoupled } in
    Scenario.run sc;
    Beehive_harness.Summary.of_scenario sc
  in
  Alcotest.(check bool) "external store costs more bandwidth" true
    (ext.Beehive_harness.Summary.s_mean_kbps
    > 2.0 *. dec.Beehive_harness.Summary.s_mean_kbps)

let suite =
  [
    ( "policies+ext_store",
      [
        Alcotest.test_case "greedy policy decisions" `Quick test_greedy_policy_decisions;
        Alcotest.test_case "greedy reason text" `Quick test_greedy_reason_text;
        Alcotest.test_case "load-balance policy" `Quick test_load_balance_policy;
        Alcotest.test_case "combined policy first-wins" `Quick test_combined_policy_first_wins;
        Alcotest.test_case "load-balance end to end" `Quick test_load_balance_end_to_end;
        Alcotest.test_case "ext store roundtrip" `Quick test_ext_store_roundtrip;
        Alcotest.test_case "ext store charges channel" `Quick test_ext_store_charges_channel;
        Alcotest.test_case "ext store read-modify-write" `Quick test_ext_store_update;
        Alcotest.test_case "te.external scenario" `Slow test_te_external_scenario;
      ] );
  ]
