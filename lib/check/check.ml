type failure = {
  f_cfg : Runner.cfg;
  f_violation : Monitor.violation;
  f_script : Script.op list;
  f_shrunk : Script.op list;
  f_replays : bool;
}

type report = {
  rp_profile : Script.profile;
  rp_first_seed : int;
  rp_seeds : int;
  rp_ticks : int;
  rp_passed : int;
  rp_failures : failure list;
  rp_lin_ops : int;
  rp_lin_checked : int;
}

let shrink_failure cfg script (v : Monitor.violation) =
  let still_fails ops =
    match Runner.execute cfg ops with
    | Runner.Fail v' -> String.equal v'.Monitor.v_monitor v.Monitor.v_monitor
    | Runner.Pass _ -> false
  in
  let shrunk = Shrink.minimize ~still_fails script in
  let replays = still_fails shrunk in
  (shrunk, replays)

let run ~seeds (base : Runner.cfg) =
  let first_seed = base.Runner.r_seed in
  let passed = ref 0 in
  let failures = ref [] in
  let lin_ops = ref 0 in
  let lin_checked = ref 0 in
  for seed = first_seed to first_seed + seeds - 1 do
    let cfg = { base with Runner.r_seed = seed } in
    match Runner.run_seed cfg with
    | _, Runner.Pass s ->
      incr passed;
      lin_ops := !lin_ops + s.Runner.s_lin_ops;
      lin_checked := !lin_checked + s.Runner.s_lin_checked
    | script, Runner.Fail v ->
      let shrunk, replays = shrink_failure cfg script v in
      failures :=
        {
          f_cfg = cfg;
          f_violation = v;
          f_script = script;
          f_shrunk = shrunk;
          f_replays = replays;
        }
        :: !failures
  done;
  {
    rp_profile = base.Runner.r_profile;
    rp_first_seed = first_seed;
    rp_seeds = seeds;
    rp_ticks = base.Runner.r_ticks;
    rp_passed = !passed;
    rp_failures = List.rev !failures;
    rp_lin_ops = !lin_ops;
    rp_lin_checked = !lin_checked;
  }

let pp_failure ppf f =
  let c = f.f_cfg in
  let profile = Script.profile_to_string c.Runner.r_profile in
  Format.fprintf ppf "FAIL profile=%s seed=%d ticks=%d@." profile c.Runner.r_seed
    c.Runner.r_ticks;
  Format.fprintf ppf "  %a@." Monitor.pp_violation f.f_violation;
  let flag on name = if on then " --" ^ name else "" in
  let bug =
    match c.Runner.r_inject with
    | None -> ""
    | Some b -> (
      match List.find_opt (fun (_, b') -> b' = b) Beehive_core.Platform.bugs with
      | Some (name, _) -> " --inject-bug " ^ name
      | None -> " (plus an injected bug with no --inject-bug name)")
  in
  Format.fprintf ppf
    "  replay: beehive_sim check --profile %s --first-seed %d --seeds 1 --ticks %d \
     --hives %d%s%s%s@."
    profile c.Runner.r_seed c.Runner.r_ticks c.Runner.r_n_hives (flag c.Runner.r_lin "lin")
    (flag c.Runner.r_outbox "outbox") bug;
  Format.fprintf ppf "  script: %d events, shrunk to %d (%s)@."
    (List.length f.f_script) (List.length f.f_shrunk)
    (if f.f_replays then "replays deterministically" else "REPLAY DIVERGED");
  Format.fprintf ppf "%a" Script.pp_timeline f.f_shrunk

let pp_report ppf r =
  Format.fprintf ppf "profile %-10s seeds %d..%d ticks %d: %d passed, %d failed@."
    (Script.profile_to_string r.rp_profile)
    r.rp_first_seed
    (r.rp_first_seed + r.rp_seeds - 1)
    r.rp_ticks r.rp_passed
    (List.length r.rp_failures);
  if r.rp_lin_checked > 0 then
    Format.fprintf ppf
      "  lin: %d client ops recorded, %d per-key histories checked linearizable@."
      r.rp_lin_ops r.rp_lin_checked;
  List.iter (fun f -> Format.fprintf ppf "%a" pp_failure f) r.rp_failures

let failure_to_string f = Format.asprintf "%a" pp_failure f
