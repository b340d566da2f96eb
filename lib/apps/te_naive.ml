module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Platform = Beehive_core.Platform
module Simtime = Beehive_sim.Simtime
open Te_common

let app_name = "te.naive"
let dict_stats = "flow_stats"
let dict_topo = "topology"

(* Route: needs the WHOLE S and T dictionaries — the design bottleneck.
   A flow is marked handled exactly when its FlowMod was emitted. *)
let on_route_tick =
  App.handler
    ~cost:(fun _ -> Simtime.of_us 200)
    ~kind:k_route_tick
    ~map:(fun _ -> Mapping.whole_dicts [ dict_stats; dict_topo ])
    (fun ctx _msg ->
      let adj = adjacency_of_dict ctx ~dict:dict_topo in
      let rerouted = ref [] in
      Context.iter_dict ctx ~dict:dict_stats (fun key v ->
          match v with
          | V_obs obs -> (
            let routed i =
              Option.is_some
                (reroute ctx adj ~flow:obs.ob_flows.(i) ~src:obs.ob_srcs.(i)
                   ~dst:obs.ob_dsts.(i))
            in
            match List.filter routed (hot_flows ~delta:Te_common.delta obs) with
            | [] -> ()
            | handled -> rerouted := (key, mark_handled obs handled) :: !rerouted)
          | _ -> ());
      List.iter (fun (key, obs) -> Context.set ctx ~dict:dict_stats ~key (V_obs obs)) !rerouted)

let app () =
  App.create ~name:app_name
    ~dicts:[ dict_stats; dict_topo ]
    ~timers:[ every_second ~kind:k_query_tick Query_tick; every_second ~kind:k_route_tick Route_tick ]
    [
      on_switch_joined ~dict:dict_stats (V_obs no_obs);
      on_switch_joined ~dict:dict_topo (V_links []);
      on_link_discovered ~dict:dict_topo;
      on_query_tick ~dict:dict_stats;
      on_stat_reply ~dict:dict_stats ~cost:(Simtime.of_us 20) ~hot:(fun _ _ obs -> obs);
      on_route_tick;
    ]

let rerouted_count platform =
  List.fold_left
    (fun n (_, v) ->
      match v with
      | V_obs obs -> Array.fold_left (fun n handled -> if handled then n + 1 else n) n obs.ob_handled
      | _ -> n)
    0
    (Platform.read_dict platform ~app:app_name ~dict:dict_stats)
