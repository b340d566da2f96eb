(** The check driver: seed sweeps, shrinking, and reporting.

    [run] explores [seeds] consecutive seeds of a fault profile. Each
    failing seed's generated script is minimized with {!Shrink} (the
    predicate: the same monitor is still violated), then the shrunk
    script is re-executed once more to confirm it replays
    deterministically. The resulting {!failure} carries everything a
    human or a CI artifact needs: the seed, the violation, the full
    script, and the shrunk timeline. *)

type failure = {
  f_cfg : Runner.cfg;  (** replays the failing seed, bug included *)
  f_violation : Monitor.violation;
  f_script : Script.op list;  (** the full generated script *)
  f_shrunk : Script.op list;  (** 1-minimal failing subsequence *)
  f_replays : bool;
      (** the shrunk script, re-executed from scratch, violated the same
          monitor again *)
}

type report = {
  rp_profile : Script.profile;
  rp_first_seed : int;
  rp_seeds : int;
  rp_ticks : int;
  rp_passed : int;
  rp_failures : failure list;
  rp_lin_ops : int;
      (** client ops the lin workload recorded across passing seeds
          (0 unless [run ~lin:true]) *)
  rp_lin_checked : int;
      (** per-key histories checked linearizable across passing seeds *)
}

val run : seeds:int -> Runner.cfg -> report
(** [run ~seeds cfg] runs [cfg] once per seed from [cfg.r_seed] to
    [cfg.r_seed + seeds - 1], changing nothing but [r_seed]. Every
    other field holds for every seed, shrinking included: with [r_lin]
    the lin workload re-runs under each candidate script, so a minimized
    script is one that still produces a non-linearizable history;
    [r_outbox] arms the exactly-once and quarantine-accounting monitors
    the same way; [r_inject] builds every platform with that bug. A
    sweep is a pure function of its arguments, so re-running it
    reproduces every verdict. *)

val pp_report : Format.formatter -> report -> unit

val failure_to_string : failure -> string
(** The artifact format the CI soak job uploads. *)
