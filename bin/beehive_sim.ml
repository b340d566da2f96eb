(* Command-line driver for the Beehive experiments.

   Subcommands regenerate the paper's Figure 4 panels individually or all
   together, with every scenario parameter exposed as a flag. *)

module Scenario = Beehive_harness.Scenario
module Fig4 = Beehive_harness.Fig4
module Summary = Beehive_harness.Summary
module Simtime = Beehive_sim.Simtime
open Cmdliner

let cfg_term =
  let docs = "SCENARIO PARAMETERS" in
  (* An absent flag keeps the chosen base's value, so the flags apply on
     top of --quick too; [show] prints that value for the help text. *)
  let param kind name show ~doc =
    let d = show Scenario.default_config and q = show Scenario.quick_config in
    let none = if String.equal d q then d else Printf.sprintf "%s; %s with --quick" d q in
    Arg.(value & opt (some ~none kind) None & info [ name ] ~docs ~doc)
  in
  let hives =
    param Arg.int "hives" (fun c -> string_of_int c.Scenario.n_hives)
      ~doc:"Number of hives (controllers)."
  in
  let switches =
    param Arg.int "switches" (fun c -> string_of_int c.Scenario.n_switches)
      ~doc:"Number of switches."
  in
  let arity =
    param Arg.int "arity" (fun c -> string_of_int c.Scenario.tree_arity)
      ~doc:"Tree topology arity."
  in
  let flows =
    param Arg.int "flows" (fun c -> string_of_int c.Scenario.flows_per_switch)
      ~doc:"Fixed-rate flows per switch."
  in
  let hot =
    param Arg.float "hot-fraction" (fun c -> Printf.sprintf "%g" c.Scenario.hot_fraction)
      ~doc:"Fraction of above-threshold flows."
  in
  let duration =
    param Arg.float "duration" (fun c -> Printf.sprintf "%g" (Simtime.to_sec c.Scenario.duration))
      ~doc:"Measured window in simulated seconds."
  in
  let seed =
    Arg.(value & opt int Scenario.default_config.Scenario.seed
         & info [ "seed" ] ~docs ~doc:"Deterministic simulation seed.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~docs
             ~doc:"Start from the laptop-fast configuration (8 hives, 48 switches, \
                   10 s); the other scenario flags apply on top of it.")
  in
  let make quick hives switches arity flows hot duration seed =
    let base = if quick then Scenario.quick_config else Scenario.default_config in
    let ( |? ) flag v = Option.value flag ~default:v in
    {
      base with
      Scenario.n_hives = hives |? base.Scenario.n_hives;
      n_switches = switches |? base.Scenario.n_switches;
      tree_arity = arity |? base.Scenario.tree_arity;
      flows_per_switch = flows |? base.Scenario.flows_per_switch;
      hot_fraction = hot |? base.Scenario.hot_fraction;
      duration = Option.fold duration ~none:base.Scenario.duration ~some:Simtime.of_sec;
      seed;
    }
  in
  Term.(const make $ quick $ hives $ switches $ arity $ flows $ hot $ duration $ seed)

let render_panel ~csv p =
  if csv then Format.printf "%a@." Fig4.render_csv p
  else Format.printf "%a@." Fig4.render p

let csv_flag =
  Arg.(value & flag
       & info [ "csv" ]
           ~doc:"Emit machine-readable series/matrix rows instead of the ASCII panels.")

let run_one name runner =
  let doc = Printf.sprintf "Regenerate %s of the paper's evaluation." name in
  let run cfg csv = render_panel ~csv (runner cfg) in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ cfg_term $ csv_flag)

let fig4_all =
  let doc = "Run all three Figure 4 experiments and the shape checks." in
  let run cfg = if not (Fig4.report ~cfg Format.std_formatter) then exit 1 in
  Cmd.v
    (Cmd.info "fig4" ~doc)
    Term.(const run $ cfg_term)

let check_cmd =
  let module Check = Beehive_check.Check in
  let module Script = Beehive_check.Script in
  let doc =
    "Deterministic fault exploration: run the nemesis over a range of seeds, \
     checking invariants continuously; shrink and print any failing trace. \
     Every run is deterministic: a seed replays to the same verdict."
  in
  let docs = "CHECK PARAMETERS" in
  let seeds =
    Arg.(value & opt int 50
         & info [ "seeds" ] ~docs ~doc:"Number of consecutive seeds to explore.")
  in
  let first_seed =
    Arg.(value & opt int 0 & info [ "first-seed" ] ~docs ~doc:"First seed of the sweep.")
  in
  let ticks =
    Arg.(value & opt int 30
         & info [ "ticks" ] ~docs
             ~doc:"Fault-injection horizon per seed, in simulated milliseconds.")
  in
  let hives =
    Arg.(value & opt int 4 & info [ "hives" ] ~docs ~doc:"Hives per checked platform.")
  in
  let profile =
    let parse s =
      Result.map_error (fun e -> `Msg e) (Script.profile_of_string s)
    in
    let print ppf p = Format.pp_print_string ppf (Script.profile_to_string p) in
    Arg.(value
         & opt (list (conv (parse, print))) Script.all_profiles
         & info [ "profile" ] ~docs
             ~doc:"Fault profile(s): $(b,migration), $(b,durability), $(b,raft), \
                   $(b,partition), $(b,elastic), $(b,disk), $(b,all), or a \
                   comma-separated list. Default: every profile.")
  in
  let trace_dir =
    Arg.(value & opt (some string) None
         & info [ "trace-dir" ] ~docs
             ~doc:"Directory to write one shrunk failure trace per failing seed \
                   (created if missing); what the CI soak job uploads.")
  in
  let lin =
    Arg.(value & flag
         & info [ "lin" ] ~docs
             ~doc:"Also run the client-history linearizability workload on every \
                   seed: logical clients issue get/put/delete and transactional \
                   ops against a dictionary app while the nemesis runs, and the \
                   recorded history is checked at run end (monitor \
                   $(b,linearizability)); violations shrink to a minimal script \
                   plus a minimal sub-history.")
  in
  let outbox =
    Arg.(value & flag
         & info [ "outbox" ] ~docs
             ~doc:"Also run the transactional-outbox workload on every seed: \
                   puts enter through a forwarding app that journals them and \
                   re-emits them inside the same transaction, and the run is \
                   judged by the $(b,exactly-once) and \
                   $(b,quarantine-accounting) monitors on top of the usual \
                   invariants.")
  in
  let inject_bug =
    Arg.(value & opt (some string) None
         & info [ "inject-bug" ] ~docs
             ~doc:"Build every checked platform with one historical bug \
                   re-introduced (its $(b,Platform.config.inject) value: \
                   $(b,forwarding) disables in-flight message forwarding after \
                   bee merges; $(b,dedup-off) disables receiver-side \
                   duplicate suppression in both the transport and the \
                   durable inbox; $(b,stale-read) makes \
                   freshly-migrated bees serve reads from their pre-transfer \
                   snapshot — only visible to $(b,--lin); $(b,lost-outbox) \
                   skips outbox replay on restart and $(b,replay-dup) wipes the \
                   durable inbox before replay — both only visible to \
                   $(b,--outbox); $(b,checksums-off) disables WAL/snapshot frame \
                   verification so injected disk damage is served as truth — \
                   only visible to $(b,--profile disk)). The sweep should then \
                   fail — a self-test of the checker.")
  in
  let run seeds first_seed ticks hives profiles trace_dir lin outbox inject_bug =
    let bugs = Beehive_core.Platform.bugs in
    let inject =
      match inject_bug with
      | None -> None
      | Some name -> (
        match List.assoc_opt name bugs with
        | Some bug -> Some bug
        | None ->
          Format.eprintf "unknown --inject-bug %S (known: %s)@." name
            (String.concat ", " (List.map fst bugs));
          exit 2)
    in
    let n_failures = ref 0 in
    List.iter
      (fun profile ->
        let report =
          Check.run ~seeds
            (Beehive_check.Runner.make_cfg ~n_hives:hives ~ticks ~lin ~outbox ?inject
               ~seed:first_seed profile)
        in
        Format.printf "%a" Check.pp_report report;
        List.iter
          (fun f ->
            incr n_failures;
            match trace_dir with
            | None -> ()
            | Some dir ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              let path =
                Filename.concat dir
                  (Printf.sprintf "trace-%s-seed%d.txt"
                     (Script.profile_to_string profile)
                     f.Check.f_cfg.Beehive_check.Runner.r_seed)
              in
              let oc = open_out path in
              output_string oc (Check.failure_to_string f);
              close_out oc;
              Format.printf "  trace written to %s@." path)
          report.Check.rp_failures)
      profiles;
    if !n_failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ seeds $ first_seed $ ticks $ hives $ profile $ trace_dir
          $ lin $ outbox $ inject_bug)

let scale_cmd =
  let module E = Beehive_harness.Elastic_exp in
  let doc =
    "Elastic membership demo: join hives into a loaded cluster (busy share must \
     drop), then drain and decommission the busiest hive (the drain must complete \
     with zero cells)."
  in
  let docs = "SCALE PARAMETERS" in
  let hives =
    Arg.(value & opt int E.default_config.E.e_hives
         & info [ "hives" ] ~docs ~doc:"Initial cluster size.")
  in
  let joins =
    Arg.(value & opt int E.default_config.E.e_joins
         & info [ "joins" ] ~docs ~doc:"Hives to join before the second phase.")
  in
  let keys =
    Arg.(value & opt int E.default_config.E.e_keys
         & info [ "keys" ] ~docs ~doc:"Counter keys in the workload.")
  in
  let phase =
    Arg.(value & opt float 5.0
         & info [ "phase" ] ~docs ~doc:"Measured seconds per phase (simulated).")
  in
  let seed =
    Arg.(value & opt int E.default_config.E.e_seed
         & info [ "seed" ] ~docs ~doc:"Deterministic simulation seed.")
  in
  let run hives joins keys phase seed =
    let config =
      {
        E.e_hives = hives;
        e_joins = joins;
        e_keys = keys;
        e_phase = Simtime.of_sec phase;
        e_seed = seed;
      }
    in
    let report = E.run config in
    Format.printf "%a@." E.render report;
    let checks = E.checks report in
    List.iter
      (fun (label, ok) ->
        Format.printf "%s %s@." (if ok then "[ok]  " else "[FAIL]") label)
      checks;
    if List.exists (fun (_, ok) -> not ok) checks then exit 1
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(const run $ hives $ joins $ keys $ phase $ seed)

let feedback_cmd =
  let doc = "Run the naive TE and print the design-bottleneck feedback (Section 5)." in
  let run cfg =
    let sc = Scenario.build { cfg with Scenario.te = Scenario.Te_naive } in
    Scenario.run sc;
    Format.printf "%a@." Beehive_core.Feedback.pp
      (Beehive_core.Feedback.analyze (Scenario.platform sc))
  in
  Cmd.v (Cmd.info "feedback" ~doc) Term.(const run $ cfg_term)

let main =
  let doc = "Beehive distributed SDN control platform — experiment runner" in
  let info = Cmd.info "beehive_sim" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      run_one "fig4a" Fig4.run_naive;
      run_one "fig4b" Fig4.run_decoupled;
      run_one "fig4c" Fig4.run_optimized;
      fig4_all;
      feedback_cmd;
      check_cmd;
      scale_cmd;
    ]

let () = exit (Cmd.eval main)
