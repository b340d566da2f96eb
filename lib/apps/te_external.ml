module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Ext_store = Beehive_core.Ext_store
module Simtime = Beehive_sim.Simtime
module Wire = Beehive_openflow.Wire
open Te_common

let app_name = "te.external"
let k_query_tick = "te.ext_query_tick"
let dict_cache = "hive_cache"

(* Store keyspace. *)
let obs_key sw = Printf.sprintf "obs:%d" sw
let route_key flow = Printf.sprintf "route:%d" flow
let topo_key = "topology"

type Value.t +=
  | V_edges of (int * int) list
  | V_switch_list of int list
  | V_route_record of int list

let () =
  Value.register_size (function
    | V_edges l -> Some (8 + (16 * List.length l))
    | V_switch_list l -> Some (8 + (8 * List.length l))
    | V_route_record p -> Some (8 + (8 * List.length p))
    | _ -> None)

(* The driver emits switch events on the master hive; the Local handler
   caches the switch list there (a hive-private cache, not shared state)
   and initializes the store record. *)
let on_switch_joined ~store =
  App.handler ~kind:Wire.k_switch_joined
    ~map:(fun _ -> Mapping.Local)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Switch_joined { sj_switch; _ } ->
        Context.update ctx ~dict:dict_cache ~key:"switches" (function
          | Some (V_switch_list l) when List.mem sj_switch l -> Some (V_switch_list l)
          | Some (V_switch_list l) -> Some (V_switch_list (sj_switch :: l))
          | _ -> Some (V_switch_list [ sj_switch ]));
        Ext_store.put store ~from_hive:(Context.hive_id ctx) ~key:(obs_key sj_switch)
          (V_obs no_obs) (fun () -> ())
      | _ -> ())

let on_link_discovered ~store =
  App.handler ~kind:Wire.k_link_discovered
    ~map:(fun _ -> Mapping.Local)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Link_discovered { ld_src_switch; ld_dst_switch; _ } ->
        (* Coarse-grained, store-backed topology record: every link event
           is a read-modify-write of the whole graph value. *)
        Ext_store.update store ~from_hive:(Context.hive_id ctx) ~key:topo_key
          (fun prev ->
            let edges = match prev with Some (V_edges e) -> e | _ -> [] in
            let edge = (ld_src_switch, ld_dst_switch) in
            if List.mem edge edges then V_edges edges else V_edges (edge :: edges))
          (fun _ -> ())
      | _ -> ())

(* Each hive queries the switches it masters (driven by its cache). *)
let on_query_tick =
  App.handler ~kind:k_query_tick
    ~map:(fun _ -> Mapping.Local)
    (fun ctx _ ->
      match Context.get ctx ~dict:dict_cache ~key:"switches" with
      | Some (V_switch_list switches) ->
        List.iter
          (fun sw ->
            Context.emit ctx ~size:Wire.size_small ~kind:Wire.k_app_stat_query
              (Wire.Stat_query { sq_switch = sw }))
          switches
      | _ -> ())

(* Collect: stateless — the observation series round-trips the store. *)
let on_stat_reply ~store =
  App.handler
    ~cost:(fun _ -> Simtime.of_us 20)
    ~kind:Wire.k_app_stat_reply
    ~map:(fun _ -> Mapping.Local)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Stat_reply { sr_switch; sr_stats } ->
        let hive = Context.hive_id ctx in
        let now = Simtime.to_sec (Context.now ctx) in
        let hot_found = ref (no_obs, []) in
        Ext_store.update store ~from_hive:hive ~key:(obs_key sr_switch)
          (fun prev ->
            let prev_obs = match prev with Some (V_obs o) -> o | _ -> no_obs in
            let obs = collect_stats ~now ~prev:prev_obs sr_stats in
            let hot = hot_flows ~delta:Te_common.delta obs in
            hot_found := (obs, hot);
            V_obs (mark_handled obs hot))
          (fun _ ->
            let obs, hot = !hot_found in
            List.iter
              (fun i -> Context.emit ctx ~size:32 ~kind:k_traffic_update (traffic_update obs i))
              hot)
      | _ -> ())

(* Route: also stateless; topology and route records come from the store. *)
let on_traffic_update ~store =
  App.handler
    ~cost:(fun _ -> Simtime.of_us 100)
    ~kind:k_traffic_update
    ~map:(fun _ -> Mapping.Local)
    (fun ctx msg ->
      match msg.Message.payload with
      | Traffic_update { tu_flow; tu_src; tu_dst; _ } ->
        let hive = Context.hive_id ctx in
        Ext_store.get store ~from_hive:hive ~key:(route_key tu_flow) (fun existing ->
            if existing = None then
              Ext_store.get store ~from_hive:hive ~key:topo_key (fun topo ->
                  let edges = match topo with Some (V_edges e) -> e | _ -> [] in
                  match
                    reroute ctx (adjacency_of_edges edges) ~flow:tu_flow ~src:tu_src ~dst:tu_dst
                  with
                  | Some path ->
                    Ext_store.put store ~from_hive:hive ~key:(route_key tu_flow)
                      (V_route_record path) (fun () -> ())
                  | None -> ()))
      | _ -> ())

let app ~store =
  App.create ~name:app_name ~dicts:[ dict_cache ]
    ~timers:[ every_second ~kind:k_query_tick Query_tick ]
    [
      on_switch_joined ~store;
      on_link_discovered ~store;
      on_query_tick;
      on_stat_reply ~store;
      on_traffic_update ~store;
    ]

let rerouted_count store =
  Ext_store.fold_keys store
    (fun key _ acc -> if String.length key > 6 && String.sub key 0 6 = "route:" then acc + 1 else acc)
    0
