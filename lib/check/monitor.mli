(** Invariant monitors.

    A monitor is a named predicate over a running check — the platform,
    the workload model (expected per-key counters), and the optional
    Raft replication layer. Continuous monitors are evaluated on a
    periodic simulated-time tick while faults are being injected; final
    monitors run once the run has quiesced (after the nemesis heals all
    failed hives). A monitor that does not apply to the current
    configuration (e.g. the Raft prefix check without Raft) reports
    nothing. *)

module Engine = Beehive_sim.Engine
module Platform = Beehive_core.Platform
module Raft_replication = Beehive_core.Raft_replication
module Failure_detector = Beehive_core.Failure_detector
module Membership = Beehive_elastic.Membership

type ctx = {
  cx_engine : Engine.t;
  cx_platform : Platform.t;
  cx_app : string;  (** the check workload's app name *)
  cx_dict : string;  (** its counter dictionary *)
  cx_puts : (string, int) Hashtbl.t;
      (** model: key -> number of puts injected while the origin hive was
          alive (each put increments the key's counter by 1) *)
  cx_raft : Raft_replication.t option;
  cx_detector : Failure_detector.t option;
      (** installed for fabric-fault profiles; lets the convergence
          monitor read residual suspicion *)
  cx_membership : Membership.t option;
      (** installed for the elastic profile; lets the drain-completeness
          monitor ask which drains are open or completed, and which asked
          for auto-decommission *)
  cx_crashes : bool;  (** the script being executed contains [Fail] ops *)
  cx_fwd : (string * string) option;
      (** the outbox workload's forwarding app and its journal dict, when
          that workload is running; arms the exactly-once and
          quarantine-accounting monitors *)
  cx_poisons : int ref;
      (** model: poison injections accepted while the origin hive was
          alive (each must end in quarantine, not in state) *)
}

type violation = {
  v_monitor : string;
  v_detail : string;
  v_at : Beehive_sim.Simtime.t;
}

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

type phase =
  | Continuous  (** evaluated on every monitor tick during the run *)
  | Final  (** evaluated once, after quiesce + heal *)

type t = {
  m_name : string;
  m_phase : phase;
  m_check : ctx -> string option;  (** [Some detail] = invariant violated *)
}

val check : t -> ctx -> unit
(** Runs the monitor; raises {!Violation} on a violation. *)

(** {2 Built-in monitors} *)

val defaults : unit -> t list
(** All built-ins, continuous monitors first. *)
