(** The decoupled Traffic Engineering application — the Section 5
    redesign: "create a separate dictionary for Route, and send aggregated
    events from Collect to notify Route about flow stat updates".

    [Init], [Query], [Collect] and the topology view are the shared
    handlers of {!Te_common}, as in {!Te_naive}; they keep per-switch
    cells in [flow_stats], so they shard across hives and process stat
    replies next to each switch's master hive. What differs is this
    module: [Collect] reports each flow that crosses the threshold to
    [Route] as a [Traffic_update], and [Route] reacts to those rare
    events alone, in the centralized bee of its own [routing] dictionary
    plus the topology view, where it also repairs routes over dead
    links. This is the design of Figure 4 (b, e): a diagonal traffic
    matrix with one cross at Route's hive. *)

val app_name : string
(** ["te.decoupled"] *)

val dict_stats : string  (** ["flow_stats"] *)

val dict_route : string  (** ["routing"] — Route's private dictionary *)

type Beehive_core.Value.t +=
  | V_rerouted of { r_path : int list; r_rate : float }
      (** one record per re-steered flow, keyed by flow id in
          [dict_route]; repaired in place when a link on [r_path] dies *)

val app : ?delta:float -> unit -> Beehive_core.App.t
(** [delta] is the re-routing rate threshold in bytes/s (default
    {!Te_common.delta}). Stats are queried once a second. *)

val rerouted_count : Beehive_core.Platform.t -> int
(** How many flows the Route function has re-steered (reads Route's
    bee state; 0 if Route has not run yet). *)
