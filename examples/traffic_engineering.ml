(* The paper's Section 5 walk-through, end to end:

   1. run the naive Traffic Engineering app (Figure 2) and watch the
      platform's feedback flag it as effectively centralized;
   2. apply the suggested redesign (decouple Route) and observe local
      processing;
   3. adversarially misplace every bee and let the runtime optimizer
      migrate them back next to their switches.

   Run with: dune exec examples/traffic_engineering.exe
   (add QUICK=0 in the environment for the full 40x400 setup) *)

module Scenario = Beehive_harness.Scenario
module Fig4 = Beehive_harness.Fig4
module Summary = Beehive_harness.Summary
module Feedback = Beehive_core.Feedback
module Platform = Beehive_core.Platform

let cfg =
  if Sys.getenv_opt "QUICK" = Some "0" then Scenario.default_config
  else Scenario.quick_config

let hr () = Format.printf "%s@." (String.make 72 '-')

let () =
  hr ();
  Format.printf "Step 1: the naive TE design (Route maps the whole dictionaries)@.";
  hr ();
  let naive = Fig4.run_naive cfg in
  Format.printf "measured: %a@.@." Summary.pp naive.Fig4.p_window.Fig4.m_summary;
  Format.printf "platform feedback:@.%a@.@." Feedback.pp
    (List.filter
       (fun (i : Feedback.item) -> i.Feedback.severity = Feedback.Critical)
       naive.Fig4.p_feedback);

  hr ();
  Format.printf "Step 2: the redesign — Collect sends aggregated events to Route@.";
  hr ();
  let decoupled = Fig4.run_decoupled cfg in
  Format.printf "measured: %a@.@." Summary.pp decoupled.Fig4.p_window.Fig4.m_summary;
  let n = naive.Fig4.p_window.Fig4.m_summary and d = decoupled.Fig4.p_window.Fig4.m_summary in
  Format.printf "locality %.0f%% -> %.0f%%; control-channel mean %.1f -> %.1f KB/s@.@."
    (100.0 *. n.Summary.s_locality)
    (100.0 *. d.Summary.s_locality)
    n.Summary.s_mean_kbps d.Summary.s_mean_kbps;

  hr ();
  Format.printf "Step 3: adversarial placement + runtime optimization@.";
  hr ();
  let optimized = Fig4.run_optimized cfg in
  let o = optimized.Fig4.p_window.Fig4.m_summary in
  Format.printf "during the window: %d migrations, peak %.1f KB/s (the migration spike)@."
    o.Summary.s_migrations o.Summary.s_peak_kbps;
  (match optimized.Fig4.p_tail with
  | Some tail ->
    Format.printf
      "after convergence: locality %.0f%%, mean %.1f KB/s — identical behaviour to the \
       decoupled design, achieved with no manual intervention@."
      (100.0 *. tail.Fig4.m_summary.Summary.s_locality)
      tail.Fig4.m_summary.Summary.s_mean_kbps
  | None -> ());
  Format.printf "@.matrices (naive | decoupled | optimized tail):@.";
  Format.printf "%a@." Beehive_net.Traffic_matrix.render
    naive.Fig4.p_window.Fig4.m_matrix;
  Format.printf "@.%a@." Beehive_net.Traffic_matrix.render
    decoupled.Fig4.p_window.Fig4.m_matrix;
  (match optimized.Fig4.p_tail with
  | Some tail ->
    Format.printf "@.%a@." Beehive_net.Traffic_matrix.render tail.Fig4.m_matrix
  | None -> ())
