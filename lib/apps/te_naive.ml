module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Simtime = Beehive_sim.Simtime
module Wire = Beehive_openflow.Wire
open Te_common

let app_name = "te.naive"
let dict_stats = "flow_stats"
let dict_topo = "topology"

let key_of_switch = string_of_int

(* Init: initialize the flow statistics of a joining switch. *)
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

(* The topology view: a switch joining adds a node, links add edges. *)
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

(* Query: periodically poll every switch we keep stats for. *)
let on_query_tick =
  App.handler ~kind:k_query_tick
    ~map:(fun _ -> Mapping.Foreach dict_stats)
    (fun ctx _msg ->
      Context.iter_dict ctx ~dict:dict_stats (fun key _ ->
          Context.emit ctx ~size:Wire.size_small ~kind:Wire.k_app_stat_query
            (Wire.Stat_query { sq_switch = int_of_string key })))

(* Collect: fold a reply into the switch's observation series. *)
let on_stat_reply =
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
        Context.set ctx ~dict:dict_stats ~key (V_obs (collect_stats ~now ~prev sr_stats))
      | _ -> ())

(* Route: needs the WHOLE S and T dictionaries — the design bottleneck. *)
let on_route_tick ~delta =
  App.handler
    ~cost:(fun _ -> Simtime.of_us 200)
    ~kind:k_route_tick
    ~map:(fun _ -> Mapping.whole_dicts [ dict_stats; dict_topo ])
    (fun ctx _msg ->
      let adj = adjacency_of_dict ctx ~dict:dict_topo in
      let rerouted = ref [] in
      Context.iter_dict ctx ~dict:dict_stats (fun key v ->
          match v with
          | V_obs obs ->
            let handled = ref [] in
            List.iter
              (fun i ->
                let src = obs.ob_srcs.(i) in
                match bfs_path adj ~src ~dst:obs.ob_dsts.(i) with
                | Some path ->
                  Context.emit ctx ~size:Wire.size_flow_mod ~kind:Wire.k_app_flow_mod
                    (Wire.App_flow_mod (reroute_mod ~flow:obs.ob_flows.(i) ~src ~path));
                  handled := i :: !handled
                | None -> ())
              (hot_flows ~delta obs);
            if !handled <> [] then rerouted := (key, obs, !handled) :: !rerouted
          | _ -> ());
      List.iter
        (fun (key, obs, handled) ->
          Context.set ctx ~dict:dict_stats ~key (V_obs (mark_handled obs handled)))
        !rerouted)

let app ?(delta = 100_000.0) () =
  let period = Simtime.of_sec 1.0 in
  App.create ~name:app_name
    ~dicts:[ dict_stats; dict_topo ]
    ~timers:
      [
        App.timer ~kind:k_query_tick ~period ~size:16 (fun ~now:_ -> Query_tick);
        App.timer ~kind:k_route_tick ~period ~size:16 (fun ~now:_ -> Route_tick);
      ]
    [
      on_switch_joined_init;
      on_switch_joined_topo;
      on_link_discovered;
      on_query_tick;
      on_stat_reply;
      on_route_tick ~delta;
    ]
