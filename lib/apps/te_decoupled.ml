module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Platform = Beehive_core.Platform
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Simtime = Beehive_sim.Simtime
open Te_common

let app_name = "te.decoupled"
let dict_stats = "flow_stats"
let dict_topo = "topology"
let dict_route = "routing"
let key_of_switch = string_of_int

type Value.t += V_rerouted of { r_path : int list; r_rate : float }

let () =
  Value.register_size (function
    | V_rerouted { r_path; _ } -> Some (16 + (8 * List.length r_path))
    | _ -> None)

(* Collect's redesign: notify Route with a small aggregated event when a
   flow crosses the threshold. *)
let report_hot ~delta ctx _switch obs =
  let hot = hot_flows ~delta obs in
  List.iter (fun i -> Context.emit ctx ~size:32 ~kind:k_traffic_update (traffic_update obs i)) hot;
  mark_handled obs hot

(* Route's one mapping, built once: Route owns its whole private
   dictionary and the whole topology view. *)
let route_and_topo = Mapping.whole_dicts [ dict_route; dict_topo ]

(* Route: reacts to aggregated updates only; owns its private dictionary
   plus the topology view, decoupled from the per-switch stats. *)
let on_traffic_update =
  App.handler
    ~cost:(fun _ -> Simtime.of_us 100)
    ~kind:k_traffic_update
    ~map:(fun _ -> route_and_topo)
    (fun ctx msg ->
      match msg.Message.payload with
      | Traffic_update { tu_flow; tu_src; tu_dst; tu_rate } ->
        let key = string_of_int tu_flow in
        if not (Context.mem ctx ~dict:dict_route ~key) then begin
          let adj = adjacency_of_dict ctx ~dict:dict_topo in
          match reroute ctx adj ~flow:tu_flow ~src:tu_src ~dst:tu_dst with
          | Some path ->
            Context.set ctx ~dict:dict_route ~key (V_rerouted { r_path = path; r_rate = tu_rate })
          | None -> ()
        end
      | _ -> ())

(* Link failures: drop the edge from the topology view (both directions
   arrive as separate Link_down events from each endpoint's discovery
   cell), then repair every installed re-route that crossed the dead
   link. The T-update handler is registered before the repair handler, so
   within the shared Route bee the view is already updated when repair
   runs. *)
let on_link_down_topo =
  App.handler ~kind:Discovery.k_link_down
    ~map:(fun msg ->
      match msg.Message.payload with
      | Discovery.Link_down { ld_a; _ } ->
        Mapping.with_key dict_topo (key_of_switch ld_a)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Discovery.Link_down { ld_a; ld_b } ->
        remove_link ctx ~dict:dict_topo ~src:ld_a ~dst:ld_b
      | _ -> ())

let on_link_down_repair =
  App.handler
    ~cost:(fun _ -> Simtime.of_us 200)
    ~kind:Discovery.k_link_down
    ~map:(fun _ -> route_and_topo)
    (fun ctx msg ->
      match msg.Message.payload with
      | Discovery.Link_down { ld_a; ld_b } ->
        let adj = adjacency_of_dict ctx ~dict:dict_topo in
        let repairs = ref [] in
        Context.iter_dict ctx ~dict:dict_route (fun key v ->
            match v with
            | V_rerouted { r_path; r_rate } when path_uses_link r_path ~a:ld_a ~b:ld_b ->
              repairs := (key, r_path, r_rate) :: !repairs
            | _ -> ());
        List.iter
          (fun (key, old_path, rate) ->
            let flow = int_of_string key in
            match old_path with
            | src :: _ -> (
              let dst = List.nth old_path (List.length old_path - 1) in
              match reroute ctx adj ~flow ~src ~dst with
              | Some path ->
                Context.set ctx ~dict:dict_route ~key
                  (V_rerouted { r_path = path; r_rate = rate })
              | None ->
                (* No alternative: forget the re-route; the flow falls
                   back to whatever default routing remains. *)
                Context.del ctx ~dict:dict_route ~key)
            | [] -> Context.del ctx ~dict:dict_route ~key)
          !repairs
      | _ -> ())

let app ?(delta = Te_common.delta) () =
  App.create ~name:app_name
    ~dicts:[ dict_stats; dict_topo; dict_route ]
    ~timers:[ every_second ~kind:k_query_tick Query_tick ]
    [
      on_switch_joined ~dict:dict_stats (V_obs no_obs);
      on_switch_joined ~dict:dict_topo (V_links []);
      on_link_discovered ~dict:dict_topo;
      on_query_tick ~dict:dict_stats;
      on_stat_reply ~dict:dict_stats ~cost:(Simtime.of_us 20) ~hot:(report_hot ~delta);
      on_traffic_update;
      on_link_down_topo;
      on_link_down_repair;
    ]

let rerouted_count platform =
  List.length (Platform.read_dict platform ~app:app_name ~dict:dict_route)
