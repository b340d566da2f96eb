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
  let naive, decoupled, optimized = Fig4.run_all ~cfg () in
  let checks = Fig4.shape_checks ~naive ~decoupled ~optimized in
  List.iter
    (fun c ->
      if not c.Fig4.c_passed then Alcotest.failf "%s: %s" c.Fig4.c_name c.Fig4.c_detail)
    checks;
  Alcotest.(check int) "all eight claims checked" 8 (List.length checks);
  (* The rendered panels and checks are pinned in [behaviour.digests]. *)
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (Fig4.render ppf) [ naive; decoupled; optimized ];
  Fig4.render_checks ppf checks;
  Format.pp_print_flush ppf ();
  Helpers.check_pinned ~section:"fig4"
    [ ("panels", Digest.to_hex (Digest.string (Buffer.contents buf))) ]

let test_panels_have_data () =
  let p = Fig4.run_decoupled ~cfg () in
  Alcotest.(check bool) "matrix non-empty" true
    (Beehive_net.Traffic_matrix.total_bytes p.Fig4.p_window.Fig4.m_matrix > 0.0);
  Alcotest.(check bool) "bandwidth series non-empty" true
    (Beehive_net.Series.total p.Fig4.p_window.Fig4.m_bandwidth > 0.0);
  Alcotest.(check bool) "TE rerouted flows" true (p.Fig4.p_rerouted > 0);
  (* The renderer must not raise. *)
  let buf = Buffer.create 1024 in
  Fig4.render (Format.formatter_of_buffer buf) p;
  Alcotest.(check bool) "rendered output" true (Buffer.length buf > 0)

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "deterministic replay" `Slow test_scenario_builds_deterministically;
        Alcotest.test_case "seed sensitivity" `Slow test_seed_changes_workload;
        Alcotest.test_case "all switches join" `Slow test_all_switches_join;
        Alcotest.test_case "fig4 shape checks pass" `Slow test_shape_checks_pass;
        Alcotest.test_case "panels have data" `Slow test_panels_have_data;
      ] );
  ]
