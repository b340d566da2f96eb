(* Traffic-engineering applications on a small simulated cluster. *)

module Scenario = Beehive_harness.Scenario
module Summary = Beehive_harness.Summary
module Platform = Beehive_core.Platform
module Cell = Beehive_core.Cell
module Simtime = Beehive_sim.Simtime
module Te_naive = Beehive_apps.Te_naive
module Te_decoupled = Beehive_apps.Te_decoupled

let tiny te =
  {
    Scenario.quick_config with
    Scenario.n_hives = 4;
    n_switches = 12;
    flows_per_switch = 10;
    hot_fraction = 0.2;
    flow_start_spread = 3.0;
    warmup = Simtime.of_sec 3.0;
    duration = Simtime.of_sec 6.0;
    te;
  }

let run te =
  let sc = Scenario.build (tiny te) in
  Scenario.run sc;
  sc

let te_bees platform app =
  List.filter
    (fun (v : Platform.bee_view) ->
      String.equal v.Platform.view_app app && not v.Platform.view_is_local)
    (Platform.live_bees platform)

let test_naive_centralizes () =
  let sc = run Scenario.Te_naive in
  let platform = Scenario.platform sc in
  let bees = te_bees platform Te_naive.app_name in
  Alcotest.(check int) "exactly one TE bee (merged)" 1 (List.length bees);
  let bee = List.hd bees in
  (* It owns every switch's stats cell plus the wildcards. *)
  Alcotest.(check bool) "owns the S wildcard" true
    (Cell.Set.mem (Cell.whole Te_naive.dict_stats) bee.Platform.view_cells);
  let owner sw =
    Platform.find_owner platform ~app:Te_naive.app_name
      (Cell.cell Te_naive.dict_stats (string_of_int sw))
  in
  for sw = 0 to 11 do
    Alcotest.(check (option int)) (Printf.sprintf "S[%d]" sw) (Some bee.Platform.view_id) (owner sw)
  done;
  (* And it re-routed hot flows. *)
  let s = Summary.of_scenario sc in
  Alcotest.(check bool) "hot traffic matrix concentrated" true (s.Summary.s_hotspot_share > 0.5)

let test_naive_reroutes_hot_flows () =
  let sc = run Scenario.Te_naive in
  let platform = Scenario.platform sc in
  let bees = te_bees platform Te_naive.app_name in
  let bee = (List.hd bees).Platform.view_id in
  (* Count handled observations in the TE state. *)
  let handled = ref 0 and total = ref 0 in
  List.iter
    (fun (dict, _, v) ->
      if String.equal dict Te_naive.dict_stats then
        match v with
        | Beehive_apps.Te_common.V_obs obs ->
          List.iter
            (fun (o : Beehive_apps.Te_common.flow_obs) ->
              incr total;
              if o.Beehive_apps.Te_common.fo_handled then incr handled)
            obs
        | _ -> ())
    (Platform.bee_state_entries platform bee);
  Alcotest.(check int) "all flows observed" 120 !total;
  Alcotest.(check bool) "some hot flows handled" true (!handled > 0);
  Alcotest.(check bool) "but not all flows" true (!handled < !total)

let test_decoupled_shards () =
  let sc = run Scenario.Te_decoupled in
  let platform = Scenario.platform sc in
  let bees = te_bees platform Te_decoupled.app_name in
  (* One bee per switch for stats, plus one centralized Route bee. *)
  Alcotest.(check bool) "many bees" true (List.length bees >= 12);
  let stats_owner sw =
    Platform.find_owner platform ~app:Te_decoupled.app_name
      (Cell.cell Te_decoupled.dict_stats (string_of_int sw))
  in
  let owners = List.filter_map stats_owner (List.init 12 Fun.id) in
  Alcotest.(check int) "stats owners are distinct" 12
    (List.length (List.sort_uniq Int.compare owners));
  (* Stats bees sit on their switch's master hive. *)
  List.iteri
    (fun sw bee ->
      let v = Option.get (Platform.bee_view platform bee) in
      Alcotest.(check int)
        (Printf.sprintf "S[%d] local to master" sw)
        (Scenario.master_of_switch sc sw)
        v.Platform.view_hive)
    owners;
  (* Route is centralized: one bee owns the routing wildcard. *)
  (match Platform.find_owner platform ~app:Te_decoupled.app_name (Cell.whole Te_decoupled.dict_route) with
  | Some _ -> ()
  | None -> Alcotest.fail "no Route bee");
  Alcotest.(check bool) "reroutes recorded" true (Te_decoupled.rerouted_count platform > 0)

let test_decoupled_locality_beats_naive () =
  let naive = Summary.of_scenario (run Scenario.Te_naive) in
  let dec = Summary.of_scenario (run Scenario.Te_decoupled) in
  Alcotest.(check bool) "decoupled more local" true
    (dec.Summary.s_locality > naive.Summary.s_locality);
  Alcotest.(check bool) "decoupled cheaper" true
    (dec.Summary.s_mean_kbps < naive.Summary.s_mean_kbps)

let test_bfs_path () =
  let adj = Hashtbl.create 8 in
  Hashtbl.replace adj 0 [ 1; 2 ];
  Hashtbl.replace adj 1 [ 0; 3 ];
  Hashtbl.replace adj 2 [ 0 ];
  Hashtbl.replace adj 3 [ 1 ];
  (match Beehive_apps.Te_common.bfs_path adj ~src:2 ~dst:3 with
  | Some p -> Alcotest.(check (list int)) "shortest path" [ 2; 0; 1; 3 ] p
  | None -> Alcotest.fail "path exists");
  Alcotest.(check bool) "unknown node" true
    (Beehive_apps.Te_common.bfs_path adj ~src:2 ~dst:9 = None);
  match Beehive_apps.Te_common.bfs_path adj ~src:1 ~dst:1 with
  | Some [ 1 ] -> ()
  | _ -> Alcotest.fail "self path"

let test_collect_stats_rates () =
  let open Beehive_apps.Te_common in
  let stat ~flow ~bytes =
    { Beehive_openflow.Wire.fs_flow = flow; fs_src_sw = 0; fs_dst_sw = 1; fs_bytes = bytes;
      fs_packets = 0; fs_duration_sec = 0.0 }
  in
  let obs1 = collect_stats ~now:1.0 ~prev:[] [ stat ~flow:7 ~bytes:1000.0 ] in
  Alcotest.(check int) "one obs" 1 (List.length obs1);
  Alcotest.(check (float 0.01)) "no rate on first sample" 0.0 (List.hd obs1).fo_rate;
  let obs2 = collect_stats ~now:3.0 ~prev:obs1 [ stat ~flow:7 ~bytes:5000.0 ] in
  Alcotest.(check (float 0.01)) "rate = delta/dt" 2000.0 (List.hd obs2).fo_rate;
  let hot = hot_flows ~delta:1000.0 obs2 in
  Alcotest.(check int) "hot" 1 (List.length hot);
  let marked = mark_handled obs2 [ 7 ] in
  Alcotest.(check int) "handled flows not hot again" 0
    (List.length (hot_flows ~delta:1000.0 marked))

(* The table-based [collect_stats] the single merge replaced, kept as
   the oracle: every sample looks its flow up in a table seeded from
   [prev], and the table is sorted by flow at the end. *)
let oracle_collect_stats ~now ~(prev : Beehive_apps.Te_common.flow_obs list) stats =
  let open Beehive_apps.Te_common in
  let module Wire = Beehive_openflow.Wire in
  let by_flow = Hashtbl.create 16 in
  List.iter (fun (o : flow_obs) -> Hashtbl.replace by_flow o.fo_flow o) prev;
  List.iter
    (fun (s : Wire.flow_stat) ->
      let obs =
        match Hashtbl.find_opt by_flow s.Wire.fs_flow with
        | Some o ->
          let dt = now -. o.fo_last_t in
          let rate =
            if dt > 0.0 then (s.Wire.fs_bytes -. o.fo_last_bytes) /. dt else o.fo_rate
          in
          { o with fo_rate = rate; fo_last_bytes = s.Wire.fs_bytes; fo_last_t = now }
        | None ->
          {
            fo_flow = s.Wire.fs_flow;
            fo_src = s.Wire.fs_src_sw;
            fo_dst = s.Wire.fs_dst_sw;
            fo_rate = 0.0;
            fo_last_bytes = s.Wire.fs_bytes;
            fo_last_t = now;
            fo_handled = false;
          }
      in
      Hashtbl.replace by_flow s.Wire.fs_flow obs)
    stats;
  Hashtbl.fold (fun _ o acc -> o :: acc) by_flow []
  |> List.sort (fun a b -> Int.compare a.fo_flow b.fo_flow)

(* Random replies: flows 0..11 in any order, a flow possibly repeated,
   switch ids varying between samples of one flow. *)
let gen_reply =
  let open QCheck.Gen in
  list_size (0 -- 16)
    (map3
       (fun flow (src, dst) bytes ->
         {
           Beehive_openflow.Wire.fs_flow = flow;
           fs_src_sw = src;
           fs_dst_sw = dst;
           fs_bytes = float_of_int bytes;
           fs_packets = 0;
           fs_duration_sec = 0.0;
         })
       (int_bound 11) (pair (int_bound 3) (int_bound 3)) (int_bound 100_000))

(* [prev] comes from two oracle rounds (at [t0], then [t1] >= [t0]) with
   some flows marked handled, and is sometimes handed over reversed; the
   checked round runs at [t1] itself or later, so both the zero-interval
   and the rate branch are taken. *)
let prop_collect_stats_matches_oracle =
  let open Beehive_apps.Te_common in
  let gen =
    QCheck.Gen.(
      tup4
        (triple gen_reply gen_reply bool)
        (list_size (0 -- 4) (int_bound 11))
        (pair (oneofl [ 0.0; 0.5; 2.0 ]) (oneofl [ 0.0; 0.25; 1.0 ]))
        (pair (oneofl [ 0.0; 1.0; 2.5 ]) gen_reply))
  in
  QCheck.Test.make ~name:"collect_stats matches the table oracle" ~count:2000
    (QCheck.make gen)
    (fun ((s0, s1, reversed), handled, (t0, step), (later, stats)) ->
      let t1 = t0 +. step in
      let prev =
        mark_handled
          (oracle_collect_stats ~now:t1 ~prev:(oracle_collect_stats ~now:t0 ~prev:[] s0) s1)
          handled
      in
      let prev = if reversed then List.rev prev else prev in
      let now = t1 +. later in
      let got = collect_stats ~now ~prev stats in
      got = oracle_collect_stats ~now ~prev stats && mark_handled got [] == got)

let suite =
  [
    ( "apps.te",
      [
        Alcotest.test_case "naive TE centralizes onto one bee" `Slow test_naive_centralizes;
        Alcotest.test_case "naive TE reroutes hot flows" `Slow test_naive_reroutes_hot_flows;
        Alcotest.test_case "decoupled TE shards per switch" `Slow test_decoupled_shards;
        Alcotest.test_case "decoupled beats naive on locality" `Slow
          test_decoupled_locality_beats_naive;
        Alcotest.test_case "bfs path" `Quick test_bfs_path;
        Alcotest.test_case "collect_stats rates" `Quick test_collect_stats_rates;
        QCheck_alcotest.to_alcotest prop_collect_stats_matches_oracle;
      ] );
  ]
