(** The traffic-engineering program of Figure 2, less what each design
    changes.

    Figure 2's TE app is four functions: [Init] on a switch joining,
    [Query] every second, [Collect] on each stat reply, and [Route]. The
    naive design ({!Te_naive}), the Section 5 redesign ({!Te_decoupled})
    and Kandoo's local app ({!Kandoo}) share [Init], [Query], the
    topology view and [Collect] from here. They differ only where the
    paper says they do: what [Collect] does with the flows above the
    threshold [delta] (its [hot] argument below), and where [Route]
    keeps its state. Every [Route], {!Te_external}'s too, installs its
    FlowMods through {!reroute}. *)

(** When each flow was last sampled. *)
type sample_times =
  | All_at of float  (** every flow, by one reply that sampled them all *)
  | Each of float array  (** per flow, after a merge *)

type obs = {
  ob_flows : int array;  (** flow ids, strictly ascending *)
  ob_srcs : int array;
  ob_dsts : int array;
  ob_rates : float array;  (** bytes/s estimated from the last two samples *)
  ob_last_bytes : float array;
  ob_times : sample_times;  (** read through {!last_t} *)
  ob_handled : bool array;
      (** already re-routed (naive) or already reported to Route
          (decoupled) *)
}
(** One switch's flow observations, packed: position [i] of every array
    describes one flow. A value is never mutated once built; the
    functions below share its arrays between old and new values. *)

type Beehive_core.Value.t +=
  | V_obs of obs  (** per-switch observations, dict [flow_stats] *)
  | V_links of int list  (** per-switch neighbour list, dict [topology] *)

val no_obs : obs
(** No flows observed yet. *)

val n_obs : obs -> int

val last_t : obs -> int -> float
(** [last_t obs i]: when the flow at position [i] was last sampled, in
    seconds. *)

(** {2 Message kinds and payloads} *)

val k_query_tick : string
val k_route_tick : string
val k_traffic_update : string

type Beehive_core.Message.payload +=
  | Query_tick
  | Route_tick
  | Traffic_update of { tu_flow : int; tu_src : int; tu_dst : int; tu_rate : float }

(** {2 Statistics pipeline} *)

val collect_stats : now:float -> prev:obs -> Beehive_openflow.Wire.flow_stats -> obs
(** Folds a stat reply into the per-switch observations, updating rates
    from byte-counter deltas. Preserves handled marks. [prev] holds one
    observation per flow, as this function returns them. The result is
    in flow order; a flow sampled twice in one reply takes both samples
    in turn. When the reply samples exactly [prev]'s flows in flow order
    (a switch's every reply after its first), the result shares [prev]'s
    id and handled arrays and the reply's byte array, and keeps one
    sample time ([All_at now]); otherwise it is one merge of the two in
    flow order, with a sample time per flow. *)

val delta : float
(** Figure 2's re-routing threshold, 100_000 bytes/s: a flow above it is hot. *)

val hot_flows : delta:float -> obs -> int list
(** Positions of the unhandled flows whose observed rate exceeds
    [delta], ascending. *)

val traffic_update : obs -> int -> Beehive_core.Message.payload
(** The [Traffic_update] reporting the flow at a position. *)

val mark_handled : obs -> int list -> obs
(** Sets the handled mark at the given positions. [mark_handled obs []]
    is [obs] itself. *)

(** {2 Topology view and re-routing} *)

val remove_link : Beehive_core.Context.t -> dict:string -> src:int -> dst:int -> unit
(** Drops [dst] from the neighbour list stored under key [src]. *)

val path_uses_link : int list -> a:int -> b:int -> bool
(** Does a switch path traverse the (undirected) link [a]-[b]? *)

val adjacency_of_dict : Beehive_core.Context.t -> dict:string -> int list array
(** The recorded topology, indexed by switch id: entry [sw] is the
    [V_links] list stored under key [sw] itself, [[]] for an id without
    one. The array is scratch: the next call refills it in place (and
    makes a new one only when the switch count changes), so it must not
    outlive the handler that asked for it. *)

val adjacency_of_edges : (int * int) list -> int list array
(** The same view built from directed edges [(a, b)]: entry [a] lists
    every [b], in the reverse of the edges' order. *)

val bfs_path : int list array -> src:int -> dst:int -> int list option
(** Shortest path in the recorded adjacency, inclusive of endpoints,
    neighbours visited in list order. [Some [src]] when [src = dst];
    [None] when there is no path, including for ids outside the array
    that no list mentions. It allocates only the path it returns: the
    parent table and queue are scratch arrays reused by the next search. *)

val reroute :
  Beehive_core.Context.t -> int list array -> flow:int -> src:int -> dst:int -> int list option
(** [Route]'s action: the {!bfs_path} from [src] to [dst] and, when there
    is one, a FlowMod emitted to re-steer [flow] along it at [src]. *)

(** {2 The shared handlers}

    Each keys [dict] by switch id. *)

val on_switch_joined : dict:string -> Beehive_core.Value.t -> Beehive_core.App.handler
(** [Init] on [SwitchJoined]: sets the switch's key in [dict] to the
    given value, unless it is already there. *)

val on_link_discovered : dict:string -> Beehive_core.App.handler
(** Adds a discovered link to the topology view kept in [dict], under
    its source switch. *)

val on_query_tick : dict:string -> Beehive_core.App.handler
(** [Query] on [k_query_tick]: a stat query to every switch with a key
    in [dict]. *)

val on_stat_reply :
  dict:string ->
  cost:Beehive_sim.Simtime.t ->
  hot:(Beehive_core.Context.t -> int -> obs -> obs) ->
  Beehive_core.App.handler
(** [Collect] on [StatReply], costing [cost]: folds the reply into the
    switch's observations in [dict] ({!collect_stats}), then stores what
    [hot ctx switch obs] returns. [hot] is the design's own reaction to
    the new observations. *)

val every_second :
  kind:string -> Beehive_core.Message.payload -> Beehive_core.App.timer
(** A timer sending the payload, 16 bytes, once a second. *)
