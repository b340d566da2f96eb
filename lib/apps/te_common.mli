(** Shared vocabulary of the traffic-engineering applications.

    Both TE designs (the naive one of Figure 2 and the decoupled redesign
    of Section 5) observe per-switch flow statistics, detect flows whose
    rate exceeds the user-defined threshold [delta], and re-steer them with
    FlowMods; they differ only in where the re-routing state lives. *)

type flow_obs = {
  fo_flow : int;
  fo_src : int;
  fo_dst : int;
  fo_rate : float;  (** bytes/s estimated from the last two samples *)
  fo_last_bytes : float;
  fo_last_t : float;
  fo_handled : bool;
      (** already re-routed (naive) or already reported to Route
          (decoupled) *)
}

type Beehive_core.Value.t +=
  | V_obs of flow_obs list  (** per-switch observations, dict [flow_stats] *)
  | V_links of int list  (** per-switch neighbour list, dict [topology] *)

(** {2 Message kinds and payloads} *)

val k_query_tick : string
val k_route_tick : string
val k_traffic_update : string

type Beehive_core.Message.payload +=
  | Query_tick
  | Route_tick
  | Traffic_update of { tu_flow : int; tu_src : int; tu_dst : int; tu_rate : float }

(** {2 Statistics pipeline} *)

val collect_stats :
  now:float -> prev:flow_obs list -> Beehive_openflow.Wire.flow_stat list -> flow_obs list
(** Folds a stat reply into the per-switch observation list, updating
    rates from byte-counter deltas. Preserves [fo_handled] marks. [prev]
    holds one observation per flow, as this function returns them. The
    result is in flow order; a flow sampled twice in one reply takes both
    samples in turn. One merge pass when [prev] and the reply (switches
    report in flow order) are already sorted. *)

val hot_flows : delta:float -> flow_obs list -> flow_obs list
(** Unhandled flows whose observed rate exceeds [delta]. *)

val mark_handled : flow_obs list -> int list -> flow_obs list
(** Sets [fo_handled] on the given flows. [mark_handled obs []] is [obs]
    itself. *)

(** {2 Topology view and re-routing} *)

val record_link : Beehive_core.Context.t -> dict:string -> src:int -> dst:int -> unit
(** Appends [dst] to the neighbour list stored under key [src]. *)

val remove_link : Beehive_core.Context.t -> dict:string -> src:int -> dst:int -> unit
(** Drops [dst] from the neighbour list stored under key [src]. *)

val path_uses_link : int list -> a:int -> b:int -> bool
(** Does a switch path traverse the (undirected) link [a]-[b]? *)

val adjacency_of_dict : Beehive_core.Context.t -> dict:string -> (int, int list) Hashtbl.t

val bfs_path : (int, int list) Hashtbl.t -> src:int -> dst:int -> int list option
(** Shortest path in the recorded adjacency, inclusive of endpoints. *)

val reroute_mod :
  flow:int -> src:int -> path:int list -> Beehive_openflow.Flow_table.mod_msg
(** FlowMod re-steering [flow] at its source switch. *)
