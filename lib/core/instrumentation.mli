(** Runtime instrumentation and placement optimization.

    Implemented — as in the paper — {e using the programming abstraction
    itself}: a hive-local collector function snapshots the metrics window
    of every bee on its hive each second and emits a report; a centralized
    aggregator function merges the reports on one hive; a periodic
    optimizer function walks the aggregated view and live-migrates bees
    toward the hive that sources the majority of their messages, capacity
    permitting (Section 3, "Runtime Instrumentation" and "On Optimal
    Placement"). *)

(** {2 Placement policies} *)

type bee_load = {
  bl_bee : int;
  bl_hive : int;  (** the bee's live hive ({!Platform.live_bee_hive}) *)
  bl_processed : int;
      (** the sum of [bl_in_by_hive], truncated: messages from a source
          hive, so ticks and other system messages do not count *)
  bl_in_by_hive : (int * float) list;
      (** decayed per-source-hive counts, in hive order: the one record
          of a bee's load, carried from its {!Stats} window to the policy *)
}

type decision = {
  d_bee : int;
  d_to_hive : int;
  d_reason : string;
}

type policy = Platform.t -> bee_load list -> decision list
(** A placement strategy: given the aggregated view, propose migrations.
    The optimizer applies them through {!Platform.migrate_bee} subject to
    {!max_migrations_per_round}; rejected decisions are dropped. *)

val max_migrations_per_round : int
(** 64: decisions past this many in one optimization round are dropped. *)

val greedy_source_policy : min_messages:int -> policy
(** The paper's heuristic ("On Optimal Placement"): move a bee to the
    hive that sources a strict majority of its inbound messages. Bees
    with fewer than [min_messages] inbound messages in the history are
    left alone. *)

val load_balance_policy : policy
(** Alternative strategy: when the busiest hive processes more than twice
    the average load, move its least-loaded migratable bee to the
    least-busy hive. *)

val scale_out_policy : policy
(** Seeds empty hives (the join half of elastic membership): when a
    placeable hive reports zero load while others are busy, moves up to
    four of the busiest bees onto each such hive, round-robin. Without this, a freshly joined hive — which hosts
    no bees and so never appears in any traffic report — would never
    receive work from the traffic-driven policies. *)

val combined_policy : policy list -> policy
(** Tries policies in order; the first decision per bee wins. *)

type config = {
  window : Beehive_sim.Simtime.t;  (** collection period (default 1 s) *)
  optimize_every : Beehive_sim.Simtime.t;
      (** how often the placement heuristic runs (default 5 s); each
          round then halves the history, keeping the view biased to
          recent traffic *)
  optimize : bool;  (** when false, instrument but never migrate *)
  policy : policy;
      (** placement strategy (default [greedy_source_policy
          ~min_messages:5]: about one collection window of steady
          traffic after decay) *)
}

val default_config : config

val app_name : string
(** ["beehive.instrumentation"] *)

type handle

val install : Platform.t -> config -> handle
(** Registers the instrumentation application on the platform. Call
    before {!Platform.start}. *)

(** {2 Aggregated analytics} *)

val loads : handle -> bee_load list
(** The view the policy is handed, built from the aggregator bee's
    current state: one entry per stored live bee, by bee id. A bee
    moved since its last report already shows its new hive. *)

val performed_migrations : handle -> int
(** Migrations the optimizer decided on (within each round's budget)
    that the platform accepted. *)
