(** Figure 4 of the paper, regenerated.

    "Inter-hive traffic matrix and control channel bandwidth consumption
    of TE when the functions are centralized (a & d), when decoupled
    (b & e), and when optimized at runtime (c & f)."

    Each experiment produces both the matrix panel and the bandwidth
    panel from one simulated run. The optimized experiment additionally
    measures a post-convergence tail window, used by the shape checks
    (after optimization "application's behavior is identical to Figures
    4e and 4b"). *)

type measurement = {
  m_matrix : Beehive_net.Traffic_matrix.t;
  m_bandwidth : Beehive_net.Series.t;
  m_summary : Summary.t;
}

type panel = {
  p_name : string;
  p_desc : string;
  p_config : Scenario.config;
  p_window : measurement;  (** the paper's measured window *)
  p_tail : measurement option;  (** post-convergence window (fig4c/f) *)
  p_feedback : Beehive_core.Feedback.item list;
  p_rerouted : int;  (** flows the TE app re-steered *)
}

val run_naive : Scenario.config -> panel
(** Figure 4 (a) and (d): naive TE, no optimizer. *)

val run_decoupled : Scenario.config -> panel
(** Figure 4 (b) and (e): decoupled TE, no optimizer. *)

val run_optimized : Scenario.config -> panel
(** Figure 4 (c) and (f): decoupled TE, every TE bee adversarially placed
    on hive 0 after warm-up, optimizer enabled. *)

type check = {
  c_name : string;
  c_passed : bool;
  c_detail : string;
}

val shape_checks : naive:panel -> decoupled:panel -> optimized:panel -> check list
(** The paper's qualitative claims as executable assertions. *)

val render : Format.formatter -> panel -> unit
(** ASCII rendering of both panels plus the summary and feedback. *)

val render_csv : Format.formatter -> panel -> unit
(** Machine-readable dump: the bandwidth series as
    [series,<t_sec>,<kbps>] rows and the traffic matrix as
    [matrix,<src>,<dst>,<bytes>] rows — paste into any plotting tool to
    redraw the actual Figure 4 panels. *)

val render_checks : Format.formatter -> check list -> unit

val report : cfg:Scenario.config -> Format.formatter -> bool
(** Runs all three experiments, prints their panels and the shape checks,
    and returns whether every check passed. *)
