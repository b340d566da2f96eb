(** Deterministic script execution.

    Builds a fresh platform for the profile (durability, Raft
    replication and/or the heartbeat failure detector on top of the
    keyed-counter check workload), schedules every script op at its
    simulated time, evaluates continuous monitors on a 1 ms tick, heals
    the fabric (partitions and loss) and restarts crashed hives after
    the horizon — fenced hives are left to rejoin through the detector —
    drains, and evaluates the final monitors. Everything — bee RNG
    streams, channel latencies, link-loss rolls, Raft timeouts — derives
    from the single engine seed, so [execute cfg ops] is a pure function
    of its arguments. *)

type cfg = {
  r_profile : Script.profile;
  r_n_hives : int;
  r_ticks : int;  (** fault-injection horizon, simulated ms *)
  r_seed : int;  (** engine seed (bee RNGs, Raft timeouts, ...) *)
  r_lin : bool;
      (** also run the client-history linearizability workload: logical
          clients issue get/put/del and two-key transactions against a
          dedicated dictionary app through the normal bee path, the
          recorded {!History} is checked by {!Lin} as a final monitor
          (name ["linearizability"]), and script [Migrate] ops
          additionally target the lin bees *)
  r_outbox : bool;
      (** run the transactional-outbox workload: [Put] ops enter through
          a forwarding app that journals the put and re-emits it inside
          the same transaction, arming the exactly-once and
          quarantine-accounting monitors; [Poison] ops inject
          always-raising messages that must end in quarantine. The kv and
          forwarding apps run unreplicated (a Raft failover legitimately
          recovers the quorum prefix, not the local journal). *)
  r_inject : Beehive_core.Platform.bug option;
      (** the bug the run's platform is built with, so a shrunk or
          replayed script runs with it too *)
}

val make_cfg :
  ?n_hives:int ->
  ?ticks:int ->
  ?lin:bool ->
  ?outbox:bool ->
  ?inject:Beehive_core.Platform.bug ->
  seed:int ->
  Script.profile ->
  cfg
(** Defaults: 4 hives, 30 ticks, [lin] and [outbox] off, no bug. *)

type stats = {
  s_events : int;
  s_processed : int;
  s_retransmits : int;
      (** transport-level retransmissions — how hard the at-least-once
          layer had to work to mask the fabric faults *)
  s_puts : int;  (** puts counted into the model (origin hive alive) *)
  s_lin_ops : int;  (** client operations the lin workload invoked *)
  s_lin_checked : int;  (** per-key histories (components) checked *)
}

type outcome =
  | Pass of stats
  | Fail of Monitor.violation

val execute :
  ?observe:(Beehive_sim.Engine.t -> Beehive_core.Platform.t -> unit) ->
  cfg ->
  Script.op list ->
  outcome
(** Runs one script to completion. Any exception escaping the platform is
    reported as a ["exception"] violation so crashes are shrinkable like
    invariant violations. The run also enforces snapshot+WAL recovery
    byte-identity at every [Restart] op (monitor name
    ["recovery-identity"]). [observe], when given, is called with the
    freshly-built engine and platform just before {!Platform.start} —
    the hook point instrumentation (e.g. {!digest}'s trace recorder)
    uses to attach before any event runs. *)

val run_seed : cfg -> Script.op list * outcome
(** Generates the script for [cfg.r_seed] with {!Nemesis.generate} and
    executes it — the seed-replay entry point. *)

val digest : cfg -> outcome * string
(** Executes [cfg]'s generated seed while recording the full emission
    trace, then hashes trace + store WAL image + live bee states +
    platform gauges + engine event count + verdict into one hex digest,
    returned with the run's verdict. A pure function of [cfg]: the
    seed-corpus pins in [test/behaviour.digests] hold it fixed. *)
