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
          monitor read drain records *)
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

val single_owner : t
(** Every cell is owned by exactly one bee ({!Registry.check_invariant}). *)

val conservation : t
(** Traffic-matrix byte conservation: row and column sums equal the
    total, locality fraction stays in [0, 1]. *)

val no_duplication : t
(** No key's counter ever exceeds the number of puts injected for it —
    a message was applied twice if it does. Valid under any fault mix. *)

val no_loss : t
(** Exact delivery conservation: every injected put is applied exactly
    once. Only meaningful without crashes (a [Fail] legitimately drops
    in-flight and un-fsynced work), so it skips itself when
    [cx_crashes]. *)

val durable_ownership : t
(** With durability on, a crash never loses cell ownership: every key
    that ever had a put still has a registered owner. Skips itself when
    the platform has no storage engine. *)

val raft_prefix : t
(** Raft log-prefix compatibility: in every replication group, any two
    members' committed log prefixes agree (same term and command at every
    shared committed index above both snapshot points). Skips itself
    without Raft. *)

val membership_convergence : t
(** After the final heal and drain: every non-decommissioned hive is back
    in membership, the failure detector (when installed) suspects nobody,
    no bee is left paused or fenced, and every key's owner lives on an
    alive hive — a partitioned-then-healed hive has rejoined without
    double ownership. *)

val drain_completeness : t
(** Every drain that started has completed by quiesce — zero cells on the
    hive, zero in-flight inbound transfers — and drains that asked for
    auto-decommission actually removed the hive. Skips itself without an
    elastic membership manager. *)

val exactly_once : t
(** End-to-end exactly-once over the outbox workload: for every key, the
    forwarding app's journal count equals the kv app's counter — each
    journaled forward emitted one put inside its transaction and that put
    applied exactly once. [C < J] is a lost committed emit (the
    lost-outbox bug); [C > J] is a double-applied replay (the replay-dup
    bug). Skips itself when the outbox workload is not running. *)

val quarantine_accounting : t
(** On a crash-free run, every accepted poison injection — and nothing
    else — ends in quarantine. Crashes can legitimately lose a
    not-yet-durable poison mid-retry, so like {!no_loss} it skips itself
    when [cx_crashes]. *)

val no_silent_corruption : t
(** No byte of storage damage is ever served silently: after a forced
    full scrub pass, any bee the omniscient oracle
    ({!Platform.broken_chains}, which ignores the production checksum
    switch) still flags must at least be marked suspect by the production
    side — detected, even if not yet repaired. Also re-verifies every
    Raft member log entry against its propose-time checksum. The monitor
    the [checksums-off] injected bug must trip. *)

val repair_convergence : t
(** Detection ends in repair: after quiesce and a forced full scrub pass,
    no bee still carries an unresolved verification failure — every
    suspect was rewritten from live state, re-seeded from a replication
    peer, or quarantined with a dead-letter record. *)

val storm_budget : int
(** 5000 engine events per monitor tick. *)

val storm : unit -> t
(** Event-storm detector: fails if more than {!storm_budget} engine events
    execute between two consecutive monitor ticks — the signature of
    runaway message amplification (the historical broadcast-storm bug).
    Stateful; create one per run. *)

val defaults : unit -> t list
(** All built-ins, continuous monitors first. *)
