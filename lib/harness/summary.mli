(** Scalar summaries of a measured window — the quantities behind the
    qualitative claims of the paper's Figure 4 ("most messages are sent
    to/from the bees on only one hive", "control channel consumption is
    significantly improved", "the largest spike correlates to replicating
    cells"). *)

type t = {
  s_locality : float;
      (** share of bee-to-bee traffic processed on its origin hive
          (diagonal of the matrix) *)
  s_hotspot_share : float;
      (** largest share of traffic touching a single hive *)
  s_hotspot_hive : int;
  s_total_inter_kb : float;  (** total inter-hive KB over the window *)
  s_peak_kbps : float;
  s_mean_kbps : float;
  s_migrations : int;  (** completed migrations so far (cumulative) *)
  s_merges : int;
  s_lock_rpcs : int;
  s_processed : int;  (** messages handled by bees (cumulative) *)
  s_live_bees : int;
  s_p50_us : int;  (** median emission-to-handler latency, microseconds *)
  s_p99_us : int;
  s_dead_letters : int;
      (** storage dead letters — bees whose persistent state was
          quarantined after an unrepairable integrity fault *)
  s_quarantined : int;  (** poison messages quarantined by delivery retry *)
  s_membership : (string * int) list;
      (** the [membership.*] and [integrity.*] entries of
          {!Beehive_core.Platform.gauges} — hive count and per-state
          breakdown, and the storage-integrity counters *)
}

val measure :
  Beehive_net.Traffic_matrix.t ->
  Beehive_net.Series.t ->
  Beehive_core.Platform.t ->
  t

val of_scenario : Scenario.t -> t
val pp : Format.formatter -> t -> unit
