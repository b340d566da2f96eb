(** Dataplane flows.

    The evaluation workload: each switch originates a set of fixed-rate
    flows, a configurable fraction of which exceed the traffic-engineering
    re-routing threshold ([delta] in the paper's Figure 2). Flows may have
    staggered start times so above-threshold flows keep appearing during
    the measurement window. *)

type t = {
  flow_id : int;
  src_switch : int;
  dst_switch : int;
  rate_bps : float;  (** bytes per second carried by the flow once started *)
  starts_at : float;  (** seconds of simulated time *)
  mutable current_path : int list;  (** switch ids, src..dst *)
}

val generate :
  Beehive_sim.Rng.t ->
  Topology.t ->
  per_switch:int ->
  hot_fraction:float ->
  base_rate:float ->
  hot_rate:float ->
  ?start_spread:float ->
  unit ->
  t array
(** [generate rng topo ~per_switch ~hot_fraction ~base_rate ~hot_rate ()]
    creates [per_switch] flows originating at every switch, each to a
    uniformly random destination switch, routed on the tree path.
    A [hot_fraction] of each switch's flows get rate [hot_rate]
    (above-threshold in the paper: "10% of these flows have a rate more
    than a user-defined re-routing threshold"); the rest get [base_rate].
    Start times are drawn uniformly from [0, start_spread] seconds
    (default 0: everything starts immediately). *)

val is_hot : threshold:float -> t -> bool

val counters : t array -> at:Beehive_sim.Simtime.t -> float array
(** [counters flows ~at] is the cumulative byte counter of each of
    [flows] at simulated time [at], in order, as a switch's flow-stats
    table would report it: a flow's rate times the time since it
    started, 0 before it starts. It allocates only the array it
    returns and one boxed float. *)
