(** Experiment scenarios.

    Builds the paper's evaluation setup — "a cluster of 40 controllers and
    400 switches in a simple tree topology. We initiate 100 fixed-rate
    flows from each switch ... 10% of these flows have a rate more than a
    user-defined re-routing threshold" — wires the OpenFlow driver, a TE
    variant and the instrumentation app onto a platform, and drives the
    simulation through warm-up, optional adversarial placement, and the
    measured window. *)

type te_variant =
  | Te_naive
  | Te_decoupled
  | Te_external
      (** the Section 6 anti-pattern: stateless handlers against an
          external key-value store *)

type config = {
  n_hives : int;
  n_switches : int;
  tree_arity : int;
  flows_per_switch : int;
  hot_fraction : float;
      (** share of each switch's flows at 250 KB/s, above the TE threshold
          {!Beehive_apps.Te_common.delta}; the rest run at 50 KB/s *)
  flow_start_spread : float;
      (** seconds over which flow start times are staggered *)
  seed : int;
  warmup : Beehive_sim.Simtime.t;
      (** joins, discovery and initial stats before accounting reset *)
  duration : Beehive_sim.Simtime.t;  (** the measured window *)
  te : te_variant;
  optimize : bool;  (** enable the placement optimizer *)
  adversarial_pin : bool;
      (** after warm-up, migrate every TE bee to hive 0 — the Section 5
          "Optimization" experiment's initial condition *)
}

val default_config : config
(** The paper's parameters: 40 hives, 400 switches, arity-4 tree, 100
    flows/switch, 10% hot, 60 s window, naive TE, no optimizer. *)

val quick_config : config
(** A laptop-fast variant (8 hives, 48 switches, 10 s) for tests. *)

type t

val build : config -> t
(** Constructs engine, platform, topology, flows, agents and apps; does
    not run anything yet. *)

val run : t -> unit
(** Executes warm-up (plus adversarial placement if configured), resets
    traffic accounting, then runs the measured window. *)

(** {2 Access} *)

val config : t -> config
val engine : t -> Beehive_sim.Engine.t
val platform : t -> Beehive_core.Platform.t
val flows : t -> Beehive_net.Flow.t array
val matrix : t -> Beehive_net.Traffic_matrix.t
val bandwidth : t -> Beehive_net.Series.t

val ext_store : t -> Beehive_core.Ext_store.t option
(** The external store, when the scenario runs [Te_external]. *)

val instrumentation : t -> Beehive_core.Instrumentation.handle
(** The instrumentation app installed on the platform. *)
