(* End-to-end: the Figure 4 experiments at test scale, including the
   paper's qualitative shape claims. *)

module Scenario = Beehive_harness.Scenario
module Fig4 = Beehive_harness.Fig4
module Summary = Beehive_harness.Summary
module Simtime = Beehive_sim.Simtime

let cfg =
  {
    Scenario.quick_config with
    Scenario.n_hives = 6;
    n_switches = 24;
    flows_per_switch = 10;
    warmup = Simtime.of_sec 3.0;
    duration = Simtime.of_sec 8.0;
    flow_start_spread = 5.0;
  }

let test_scenario_builds_deterministically () =
  let run () =
    let sc = Scenario.build cfg in
    Scenario.run sc;
    Summary.of_scenario sc
  in
  let a = run () and b = run () in
  Alcotest.(check int) "processed identical" a.Summary.s_processed b.Summary.s_processed;
  Alcotest.(check (float 0.0001)) "locality identical" a.Summary.s_locality b.Summary.s_locality;
  Alcotest.(check (float 0.0001)) "bytes identical" a.Summary.s_total_inter_kb
    b.Summary.s_total_inter_kb

(* [Scenario.build] groups the flows by switch in one pass. A filter
   over every flow for each switch copied the flow list once per switch:
   a quick build (48 switches, 960 flows) took 242,187 words that way
   and takes 103,559 in one pass. The bound sits between the two. The
   second build is measured, so tables built on first use are not. *)
let test_build_groups_flows_once () =
  ignore (Scenario.build Scenario.quick_config);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Scenario.build Scenario.quick_config));
  let words = Gc.minor_words () -. before in
  if words > 120_000. then
    Alcotest.failf "a quick build allocated %.0f words, bound 120,000" words

let test_seed_changes_workload () =
  (* Different seeds draw a different workload (flow destinations and
     start times); aggregate byte totals can legitimately coincide since
     stat-reply sizes depend only on flow counts. *)
  let dests seed =
    let sc = Scenario.build { cfg with Scenario.seed } in
    Array.to_list (Array.map (fun (f : Beehive_net.Flow.t) -> f.Beehive_net.Flow.dst_switch)
        (Scenario.flows sc))
  in
  Alcotest.(check bool) "different seeds differ" true (dests 1 <> dests 2)

let test_all_switches_join () =
  let sc = Scenario.build cfg in
  Scenario.run sc;
  let platform = Scenario.platform sc in
  for sw = 0 to cfg.Scenario.n_switches - 1 do
    match
      Beehive_core.Platform.find_owner platform ~app:Beehive_openflow.Driver.app_name
        (Beehive_core.Cell.cell Beehive_openflow.Driver.dict_switches (string_of_int sw))
    with
    | Some _ -> ()
    | None -> Alcotest.failf "switch %d has no driver bee" sw
  done

let test_shape_checks_pass () =
  let naive = Fig4.run_naive cfg in
  let decoupled = Fig4.run_decoupled cfg in
  let optimized = Fig4.run_optimized cfg in
  let checks = Fig4.shape_checks ~naive ~decoupled ~optimized in
  List.iter
    (fun c ->
      if not c.Fig4.c_passed then Alcotest.failf "%s: %s" c.Fig4.c_name c.Fig4.c_detail)
    checks;
  Alcotest.(check int) "all eight claims checked" 8 (List.length checks);
  (* Each design re-routes exactly the scenario's hot flows. *)
  List.iter
    (fun (p : Fig4.panel) ->
      let hot = Helpers.hot_flow_count (Scenario.build p.Fig4.p_config) in
      Alcotest.(check bool) "the scenario has hot flows" true (hot > 0);
      Alcotest.(check int) (p.Fig4.p_name ^ " re-routes every hot flow") hot p.Fig4.p_rerouted)
    [ naive; decoupled; optimized ];
  (* The rendered panels and checks are pinned in [behaviour.digests]. *)
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (Fig4.render ppf) [ naive; decoupled; optimized ];
  Fig4.render_checks ppf checks;
  Format.pp_print_flush ppf ();
  Helpers.check_pinned ~section:"fig4"
    [ ("panels", Digest.to_hex (Digest.string (Buffer.contents buf))) ]

(* The paper-scale Figure 4 (40 hives, 400 switches, 60 s), rendered
   exactly as [beehive_sim fig4] prints it: all three panels and the
   eight shape checks. *)
let test_fig4_paper_scale_pinned () =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  let passed = Fig4.report ~cfg:Scenario.default_config ppf in
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "every shape check passes" true passed;
  Helpers.check_pinned ~section:"fig4-paper"
    [ ("report", Digest.to_hex (Digest.string (Buffer.contents buf))) ]

(* The Figure 4 apps' state values, printed exactly (floats in hex).
   Values whose constructor is not exported (the optimizer's per-bee
   loads) contribute their size estimate. *)
let show_value = function
  | Beehive_openflow.Driver.V_switch { v_master; v_n_ports; v_joined_at } ->
    Printf.sprintf "switch master=%d ports=%d joined=%h" v_master v_n_ports v_joined_at
  | Beehive_apps.Te_decoupled.V_rerouted { r_path; r_rate } ->
    Printf.sprintf "rerouted [%s] %h" (String.concat " " (List.map string_of_int r_path)) r_rate
  | Beehive_apps.Te_common.V_obs o ->
    String.concat ";"
      (List.init (Beehive_apps.Te_common.n_obs o) (fun i ->
           Printf.sprintf "%d:%d->%d %h %h %h %b" o.ob_flows.(i) o.ob_srcs.(i) o.ob_dsts.(i)
             o.ob_rates.(i) o.ob_last_bytes.(i)
             (Beehive_apps.Te_common.last_t o i)
             o.ob_handled.(i)))
  | Beehive_apps.Te_common.V_links l -> String.concat " " (List.map string_of_int l)
  | v -> Format.asprintf "%a/%d" Beehive_core.Value.pp v (Beehive_core.Value.size v)

(* The Figure 4c scenario itself, beyond what the panels render: the
   optimizer's migration log, every live bee's state (the driver's
   switch tables and the TE routes behind each FlowMod) and the
   aggregator's per-bee loads, floats in hex. *)
let test_fig4c_scenario_pinned () =
  let module P = Beehive_core.Platform in
  let sc =
    Scenario.build
      { cfg with Scenario.te = Scenario.Te_decoupled; optimize = true; adversarial_pin = true }
  in
  Scenario.run sc;
  let platform = Scenario.platform sc in
  let md5 lines = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  let migrations =
    List.map
      (fun (m : P.migration) ->
        Printf.sprintf "%d %s %d->%d %dB %s @%dus" m.P.mig_bee m.P.mig_app m.P.mig_src
          m.P.mig_dst m.P.mig_bytes m.P.mig_reason (Simtime.to_us m.P.mig_at))
      (P.migrations platform)
  in
  let bee_state =
    List.concat_map
      (fun (v : P.bee_view) ->
        Printf.sprintf "bee %d %s" v.P.view_id v.P.view_app
        :: List.map
             (fun (d, k, value) -> Printf.sprintf "  %s/%s=%s" d k (show_value value))
             (P.bee_state_entries platform v.P.view_id))
      (P.live_bees platform)
  in
  (* The aggregator's decayed per-bee loads, the optimizer's input. *)
  let loads =
    List.map
      (fun (l : Beehive_core.Instrumentation.bee_load) ->
        Printf.sprintf "%d %s %d %d [%s]" l.bl_bee
          (Option.get (P.bee_view platform l.bl_bee)).P.view_app
          l.bl_hive l.bl_processed
          (String.concat " " (List.map (fun (h, c) -> Printf.sprintf "%d:%h" h c) l.bl_in_by_hive)))
      (Beehive_core.Instrumentation.loads (Scenario.instrumentation sc))
  in
  Alcotest.(check bool) "the optimizer migrated bees" true (migrations <> []);
  Alcotest.(check bool) "the aggregator holds loads" true (loads <> []);
  Helpers.check_pinned ~section:"fig4c"
    [ ("migrations", md5 migrations); ("bee-state", md5 bee_state); ("loads", md5 loads) ]

let test_panels_have_data () =
  let p = Fig4.run_decoupled cfg in
  Alcotest.(check bool) "matrix non-empty" true
    (Beehive_net.Traffic_matrix.total_bytes p.Fig4.p_window.Fig4.m_matrix > 0.0);
  Alcotest.(check bool) "bandwidth series non-empty" true
    (Beehive_net.Series.total p.Fig4.p_window.Fig4.m_bandwidth > 0.0);
  (* The renderer must not raise. *)
  let buf = Buffer.create 1024 in
  Fig4.render (Format.formatter_of_buffer buf) p;
  Alcotest.(check bool) "rendered output" true (Buffer.length buf > 0)

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "deterministic replay" `Slow test_scenario_builds_deterministically;
        Alcotest.test_case "a quick build groups flows once" `Quick test_build_groups_flows_once;
        Alcotest.test_case "seed sensitivity" `Slow test_seed_changes_workload;
        Alcotest.test_case "all switches join" `Slow test_all_switches_join;
        Alcotest.test_case "fig4 shape checks pass" `Slow test_shape_checks_pass;
        Alcotest.test_case "fig4 at paper scale pinned" `Slow test_fig4_paper_scale_pinned;
        Alcotest.test_case "fig4c migrations and bee state pinned" `Slow
          test_fig4c_scenario_pinned;
        Alcotest.test_case "panels have data" `Slow test_panels_have_data;
      ] );
  ]
