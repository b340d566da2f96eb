module Traffic_matrix = Beehive_net.Traffic_matrix
module Series = Beehive_net.Series
module Simtime = Beehive_sim.Simtime
module Engine = Beehive_sim.Engine
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module Feedback = Beehive_core.Feedback

type measurement = {
  m_matrix : Traffic_matrix.t;
  m_bandwidth : Series.t;
  m_summary : Summary.t;
}

type panel = {
  p_name : string;
  p_desc : string;
  p_config : Scenario.config;
  p_window : measurement;
  p_tail : measurement option;
  p_feedback : Feedback.item list;
  p_rerouted : int;
}

let snapshot_matrix m =
  let copy = Traffic_matrix.create (Traffic_matrix.size m) in
  Traffic_matrix.merge_into ~dst:copy m;
  copy

let measure_now sc =
  let m = snapshot_matrix (Scenario.matrix sc) in
  let bw = Scenario.bandwidth sc in
  { m_matrix = m; m_bandwidth = bw; m_summary = Summary.measure m bw (Scenario.platform sc) }

let rerouted_of sc =
  let platform = Scenario.platform sc in
  match (Scenario.config sc).Scenario.te with
  | Scenario.Te_naive -> Beehive_apps.Te_naive.rerouted_count platform
  | Scenario.Te_decoupled -> Beehive_apps.Te_decoupled.rerouted_count platform
  | Scenario.Te_external -> (
    match Scenario.ext_store sc with
    | Some store -> Beehive_apps.Te_external.rerouted_count store
    | None -> 0)

let run_panel ~name ~desc ~tail cfg =
  let sc = Scenario.build cfg in
  Scenario.run sc;
  let window = measure_now sc in
  let tail_m =
    if not tail then None
    else begin
      (* Post-convergence window: reset accounting, run half a window. *)
      Channels.reset_accounting (Platform.channels (Scenario.platform sc));
      let eng = Scenario.engine sc in
      let extra = Simtime.of_us (Simtime.to_us cfg.Scenario.duration / 2) in
      Engine.run_until eng (Simtime.add (Engine.now eng) extra);
      Some (measure_now sc)
    end
  in
  {
    p_name = name;
    p_desc = desc;
    p_config = cfg;
    p_window = window;
    p_tail = tail_m;
    p_feedback = Feedback.analyze (Scenario.platform sc);
    p_rerouted = rerouted_of sc;
  }

let run_naive cfg =
  run_panel ~name:"fig4-a/d"
    ~desc:"naive TE (Route maps whole dictionaries): effectively centralized" ~tail:false
    { cfg with Scenario.te = Scenario.Te_naive; optimize = false; adversarial_pin = false }

let run_decoupled cfg =
  run_panel ~name:"fig4-b/e"
    ~desc:"decoupled TE (aggregated events to Route): local processing + one cross"
    ~tail:false
    { cfg with Scenario.te = Scenario.Te_decoupled; optimize = false; adversarial_pin = false }

let run_optimized cfg =
  run_panel ~name:"fig4-c/f"
    ~desc:
      "decoupled TE, adversarial placement on hive 0, runtime optimizer migrates bees \
       back to their masters"
    ~tail:true
    { cfg with Scenario.te = Scenario.Te_decoupled; optimize = true; adversarial_pin = true }

type check = {
  c_name : string;
  c_passed : bool;
  c_detail : string;
}

let check name passed detail = { c_name = name; c_passed = passed; c_detail = detail }

let shape_checks ~naive ~decoupled ~optimized =
  let n = naive.p_window.m_summary in
  let d = decoupled.p_window.m_summary in
  let o = optimized.p_window.m_summary in
  let ot =
    match optimized.p_tail with
    | Some t -> t.m_summary
    | None -> o
  in
  [
    check "naive: one hive dominates"
      (n.Summary.s_hotspot_share > 0.6)
      (Printf.sprintf "hotspot share %.0f%% (expected > 60%%)"
         (100.0 *. n.Summary.s_hotspot_share));
    check "naive: flagged as effectively centralized"
      (List.exists
         (fun (i : Feedback.item) ->
           i.Feedback.severity = Feedback.Critical
           && i.Feedback.app = Some Beehive_apps.Te_naive.app_name)
         naive.p_feedback)
      "feedback contains a critical finding for te.naive";
    check "decoupled: processing is local"
      (d.Summary.s_locality > 0.6 && d.Summary.s_locality > 2.0 *. n.Summary.s_locality)
      (Printf.sprintf "locality %.0f%% vs naive %.0f%%" (100.0 *. d.Summary.s_locality)
         (100.0 *. n.Summary.s_locality));
    check "decoupled: control channel significantly improved"
      (n.Summary.s_mean_kbps > 3.0 *. d.Summary.s_mean_kbps)
      (Printf.sprintf "mean %.1f KB/s vs naive %.1f KB/s" d.Summary.s_mean_kbps
         n.Summary.s_mean_kbps);
    check "optimized: runtime migrations happened"
      (o.Summary.s_migrations
       > optimized.p_config.Scenario.n_switches / 2)
      (Printf.sprintf "%d migrations (>= half the switches expected)"
         o.Summary.s_migrations);
    check "optimized: migration spike visible in the window"
      (o.Summary.s_peak_kbps > 3.0 *. Float.max 1.0 ot.Summary.s_mean_kbps)
      (Printf.sprintf "window peak %.1f KB/s vs tail mean %.1f KB/s" o.Summary.s_peak_kbps
         ot.Summary.s_mean_kbps);
    check "optimized: converges to local processing"
      (ot.Summary.s_locality > 0.6)
      (Printf.sprintf "tail locality %.0f%%" (100.0 *. ot.Summary.s_locality));
    check "optimized: tail behaves like the decoupled design"
      (ot.Summary.s_mean_kbps < Float.max 4.0 (2.0 *. d.Summary.s_mean_kbps))
      (Printf.sprintf "tail mean %.1f KB/s vs decoupled %.1f KB/s" ot.Summary.s_mean_kbps
         d.Summary.s_mean_kbps);
  ]

let render fmt p =
  let cfg = p.p_config in
  Format.fprintf fmt "@[<v>=== %s: %s@,@," p.p_name p.p_desc;
  Format.fprintf fmt "cluster: %d hives, %d switches (arity-%d tree), %d flows/switch, %.0f%% hot@,@,"
    cfg.Scenario.n_hives cfg.Scenario.n_switches cfg.Scenario.tree_arity
    cfg.Scenario.flows_per_switch
    (100.0 *. cfg.Scenario.hot_fraction);
  Format.fprintf fmt "inter-hive traffic matrix (rows = src hive, cols = dst hive):@,%a@,@,"
    Traffic_matrix.render
    p.p_window.m_matrix;
  Format.fprintf fmt "control-channel bandwidth over the window: [%a]@,"
    Series.render_sparkline
    p.p_window.m_bandwidth;
  Format.fprintf fmt "@,%a@,@," Summary.pp p.p_window.m_summary;
  (match p.p_tail with
  | Some t ->
    Format.fprintf fmt "post-convergence tail:@,%a@,matrix:@,%a@,@," Summary.pp
      t.m_summary
      Traffic_matrix.render
      t.m_matrix
  | None -> ());
  Format.fprintf fmt "flows re-routed by TE: %d@,@," p.p_rerouted;
  Format.fprintf fmt "feedback:@,%a@,@]" Feedback.pp p.p_feedback

let render_csv fmt p =
  Format.fprintf fmt "# %s: %s@." p.p_name p.p_desc;
  Array.iter
    (fun (t, kbps) -> Format.fprintf fmt "series,%.1f,%.3f@." t kbps)
    (Series.rate_kbps p.p_window.m_bandwidth);
  let m = p.p_window.m_matrix in
  for i = 0 to Traffic_matrix.size m - 1 do
    for j = 0 to Traffic_matrix.size m - 1 do
      let b = Traffic_matrix.bytes m ~src:i ~dst:j in
      if b > 0.0 then Format.fprintf fmt "matrix,%d,%d,%.0f@." i j b
    done
  done

let render_checks fmt checks =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun c ->
      Format.fprintf fmt "[%s] %s — %s@," (if c.c_passed then "PASS" else "FAIL") c.c_name
        c.c_detail)
    checks;
  Format.fprintf fmt "@]"

let report ~cfg fmt =
  let naive = run_naive cfg in
  let decoupled = run_decoupled cfg in
  let optimized = run_optimized cfg in
  List.iter (Format.fprintf fmt "%a@." render) [ naive; decoupled; optimized ];
  let checks = shape_checks ~naive ~decoupled ~optimized in
  Format.fprintf fmt "=== shape checks (the paper's qualitative claims)@.%a@." render_checks
    checks;
  List.for_all (fun c -> c.c_passed) checks
