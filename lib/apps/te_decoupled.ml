module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Cell = Beehive_core.Cell
module Platform = Beehive_core.Platform
module Simtime = Beehive_sim.Simtime
module Wire = Beehive_openflow.Wire
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

let on_switch_joined_init =
  App.handler ~kind:Wire.k_switch_joined
    ~map:(fun msg ->
      match msg.Message.payload with
      | Wire.Switch_joined { sj_switch; _ } ->
        Mapping.with_key dict_stats (key_of_switch sj_switch)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Switch_joined { sj_switch; _ } ->
        let key = key_of_switch sj_switch in
        if not (Context.mem ctx ~dict:dict_stats ~key) then
          Context.set ctx ~dict:dict_stats ~key (V_obs no_obs)
      | _ -> ())

let on_switch_joined_topo =
  App.handler ~kind:Wire.k_switch_joined
    ~map:(fun msg ->
      match msg.Message.payload with
      | Wire.Switch_joined { sj_switch; _ } ->
        Mapping.with_key dict_topo (key_of_switch sj_switch)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Switch_joined { sj_switch; _ } ->
        let key = key_of_switch sj_switch in
        if not (Context.mem ctx ~dict:dict_topo ~key) then
          Context.set ctx ~dict:dict_topo ~key (V_links [])
      | _ -> ())

let on_link_discovered =
  App.handler ~kind:Wire.k_link_discovered
    ~map:(fun msg ->
      match msg.Message.payload with
      | Wire.Link_discovered { ld_src_switch; _ } ->
        Mapping.with_key dict_topo (key_of_switch ld_src_switch)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Link_discovered { ld_src_switch; ld_dst_switch; _ } ->
        record_link ctx ~dict:dict_topo ~src:ld_src_switch ~dst:ld_dst_switch
      | _ -> ())

let on_query_tick =
  App.handler ~kind:k_query_tick
    ~map:(fun _ -> Mapping.Foreach dict_stats)
    (fun ctx _msg ->
      Context.iter_dict ctx ~dict:dict_stats (fun key _ ->
          Context.emit ctx ~size:Wire.size_small ~kind:Wire.k_app_stat_query
            (Wire.Stat_query { sq_switch = int_of_string key })))

(* Collect: fold stats in, and — the redesign — notify Route with a small
   aggregated event when a flow crosses the threshold. *)
let on_stat_reply ~delta =
  App.handler
    ~cost:(fun _ -> Simtime.of_us 20)
    ~kind:Wire.k_app_stat_reply
    ~map:(fun msg ->
      match msg.Message.payload with
      | Wire.Stat_reply { sr_switch; _ } ->
        Mapping.with_key dict_stats (key_of_switch sr_switch)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Stat_reply { sr_switch; sr_stats } ->
        let key = key_of_switch sr_switch in
        let prev =
          match Context.get ctx ~dict:dict_stats ~key with
          | Some (V_obs o) -> o
          | Some _ | None -> no_obs
        in
        let now = Simtime.to_sec (Context.now ctx) in
        let obs = collect_stats ~now ~prev sr_stats in
        let hot = hot_flows ~delta obs in
        List.iter
          (fun i -> Context.emit ctx ~size:32 ~kind:k_traffic_update (traffic_update obs i))
          hot;
        let obs = mark_handled obs hot in
        Context.set ctx ~dict:dict_stats ~key (V_obs obs)
      | _ -> ())

(* Route: reacts to aggregated updates only; owns its private dictionary
   plus the topology view, decoupled from the per-switch stats. *)
let on_traffic_update =
  App.handler
    ~cost:(fun _ -> Simtime.of_us 100)
    ~kind:k_traffic_update
    ~map:(fun _ -> Mapping.whole_dicts [ dict_route; dict_topo ])
    (fun ctx msg ->
      match msg.Message.payload with
      | Traffic_update { tu_flow; tu_src; tu_dst; tu_rate } ->
        let key = string_of_int tu_flow in
        if not (Context.mem ctx ~dict:dict_route ~key) then begin
          let adj = adjacency_of_dict ctx ~dict:dict_topo in
          match bfs_path adj ~src:tu_src ~dst:tu_dst with
          | Some path ->
            Context.emit ctx ~size:Wire.size_flow_mod ~kind:Wire.k_app_flow_mod
              (Wire.App_flow_mod (reroute_mod ~flow:tu_flow ~src:tu_src ~path));
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
    ~map:(fun _ -> Mapping.whole_dicts [ dict_route; dict_topo ])
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
              match bfs_path adj ~src ~dst with
              | Some path ->
                Context.emit ctx ~size:Wire.size_flow_mod ~kind:Wire.k_app_flow_mod
                  (Wire.App_flow_mod (reroute_mod ~flow ~src ~path));
                Context.set ctx ~dict:dict_route ~key
                  (V_rerouted { r_path = path; r_rate = rate })
              | None ->
                (* No alternative: forget the re-route; the flow falls
                   back to whatever default routing remains. *)
                Context.del ctx ~dict:dict_route ~key)
            | [] -> Context.del ctx ~dict:dict_route ~key)
          !repairs
      | _ -> ())

let app ?(delta = 100_000.0) () =
  App.create ~name:app_name
    ~dicts:[ dict_stats; dict_topo; dict_route ]
    ~timers:
      [ App.timer ~kind:k_query_tick ~period:(Simtime.of_sec 1.0) ~size:16 (fun ~now:_ -> Query_tick) ]
    [
      on_switch_joined_init;
      on_switch_joined_topo;
      on_link_discovered;
      on_query_tick;
      on_stat_reply ~delta;
      on_traffic_update;
      on_link_down_topo;
      on_link_down_repair;
    ]

let rerouted_count platform =
  match Platform.find_owner platform ~app:app_name (Cell.whole dict_route) with
  | None -> 0
  | Some bee ->
    List.length
      (List.filter
         (fun (dict, _, _) -> String.equal dict dict_route)
         (Platform.bee_state_entries platform bee))
