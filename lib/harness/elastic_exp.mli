(** The elastic scale-out / scale-in experiment.

    A loaded cluster runs a key-sharded counter workload in three
    measured phases: the initial hives under steady load; after joining
    fresh hives (the instrumentation optimizer's scale-out policy pulls
    the busiest bees onto them, dropping the busiest hive's share of
    processed work); and after draining the then-busiest hive, which must
    complete — zero cells, zero in-flight transfers — and auto-decommission.
    Backs the [beehive_sim scale] subcommand and the elastic bench
    ablation. *)

type config = {
  e_hives : int;  (** initial cluster size *)
  e_joins : int;  (** hives joined before the second phase *)
  e_keys : int;  (** counter keys (≈ workload bees) *)
  e_phase : Beehive_sim.Simtime.t;  (** measured duration of each phase *)
  e_seed : int;
}

val default_config : config
(** 4 hives + 2 joins, 24 keys, 5 s phases. *)

type phase_stats = {
  p_label : string;
  p_members : int;  (** non-decommissioned hives at phase end *)
  p_processed : int;  (** workload messages processed this phase *)
  p_busiest_hive : int;
  p_busiest_share : float;
      (** busiest hive's fraction of the phase's processed work,
          instrumentation app excluded *)
}

type report = {
  r_before : phase_stats;
  r_scaled : phase_stats;
  r_drained : phase_stats;
  r_joined : int list;  (** ids of the hives that joined *)
  r_drain_hive : int;
  r_drain_cells : int;  (** cells left on the drained hive; 0 on success *)
  r_drain_completed : bool;
  r_decommissioned : bool;
  r_rebalance_migrations : int;
  r_last_drain_us : int;
  r_integrity : (string * int) list;
      (** the platform's [integrity.*] gauges at run end (scrub/repair
          counters; all zero in a fault-free run) *)
  r_dead_letters : int;  (** bees with quarantined persistent state *)
  r_quarantined : int;  (** poison messages parked by delivery retry *)
}

val run : config -> report
(** Runs the three phases under a steady load of one put every 2 ms. *)

val render : Format.formatter -> report -> unit

val checks : report -> (string * bool) list
(** The demo's pass/fail claims: busiest share decreased after the join,
    the drain completed with zero cells, the hive was decommissioned, the
    rebalancer actually moved bees, and the run stayed clean of dead
    letters and quarantined messages. *)
