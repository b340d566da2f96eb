module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Channels = Beehive_net.Channels
module Simtime = Beehive_sim.Simtime

let app_name = "openflow.driver"
let dict_switches = "switches"
let switch_key sw = string_of_int sw

type Value.t += V_switch of { v_master : int; v_n_ports : int; v_joined_at : float }

let () =
  Value.register_size (function V_switch _ -> Some 24 | _ -> None)

(* Each message maps to the cell of the switch it concerns. The
   or-pattern binds the switch id with no option around it. *)
let map_per_switch (msg : Message.t) =
  match msg.Message.payload with
  | Wire.Hello { h_switch = sw; _ }
  | Wire.Echo_request { er_switch = sw }
  | Wire.Echo_reply { ep_switch = sw }
  | Wire.Packet_in { pi_switch = sw; _ }
  | Wire.Packet_out { po_switch = sw; _ }
  | Wire.Flow_mod { Flow_table.fm_switch = sw; _ }
  | Wire.Flow_stat_request { fsq_switch = sw }
  | Wire.Flow_stat_reply { fsr_switch = sw; _ }
  | Wire.Port_status { ps_switch = sw; _ }
  | Wire.Stat_query { sq_switch = sw }
  | Wire.App_flow_mod { Flow_table.fm_switch = sw; _ }
  | Wire.App_packet_out { apo_switch = sw; _ } ->
    Mapping.with_key dict_switches (switch_key sw)
  | _ -> Mapping.Drop

let driver_cost _ = Simtime.of_us 5

let on_hello =
  App.handler ~cost:driver_cost ~kind:Wire.k_hello ~map:map_per_switch (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Hello { h_switch; h_n_ports } ->
        let master = Context.hive_id ctx in
        Context.set ctx ~dict:dict_switches ~key:(switch_key h_switch)
          (V_switch
             {
               v_master = master;
               v_n_ports = h_n_ports;
               v_joined_at = Simtime.to_sec (Context.now ctx);
             });
        Context.emit ctx ~size:Wire.size_small ~kind:Wire.k_switch_joined
          (Wire.Switch_joined { sj_switch = h_switch; sj_master = master })
      | _ -> ())

let on_echo_request =
  App.handler ~cost:driver_cost ~kind:Wire.k_echo_request ~map:map_per_switch
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Echo_request { er_switch } ->
        Context.send_to ctx (Channels.Switch er_switch) ~size:Wire.size_small
          ~kind:Wire.k_echo_reply
          (Wire.Echo_reply { ep_switch = er_switch })
      | _ -> ())

let on_wire_stat_reply =
  App.handler ~cost:driver_cost ~kind:Wire.k_stat_reply ~map:map_per_switch
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Flow_stat_reply { fsr_switch; fsr_stats } ->
        Context.emit ctx
          ~size:(Wire.size_stat_reply (Wire.n_stats fsr_stats))
          ~kind:Wire.k_app_stat_reply
          (Wire.Stat_reply { sr_switch = fsr_switch; sr_stats = fsr_stats })
      | _ -> ())

let on_app_stat_query =
  App.handler ~cost:driver_cost ~kind:Wire.k_app_stat_query ~map:map_per_switch
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Stat_query { sq_switch } ->
        Context.send_to ctx (Channels.Switch sq_switch) ~size:Wire.size_stat_request
          ~kind:Wire.k_stat_request
          (Wire.Flow_stat_request { fsq_switch = sq_switch })
      | _ -> ())

let on_app_flow_mod =
  App.handler ~cost:driver_cost ~kind:Wire.k_app_flow_mod ~map:map_per_switch
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.App_flow_mod m ->
        Context.send_to ctx
          (Channels.Switch m.Flow_table.fm_switch)
          ~size:Wire.size_flow_mod ~kind:Wire.k_flow_mod (Wire.Flow_mod m)
      | _ -> ())

let on_wire_packet_in =
  App.handler ~cost:driver_cost ~kind:Wire.k_packet_in ~map:map_per_switch
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Packet_in { pi_switch; pi_port; pi_src_mac; pi_dst_mac; pi_lldp } -> (
        match pi_lldp with
        | Some (origin_switch, origin_port) ->
          Context.emit ctx ~size:Wire.size_small ~kind:Wire.k_link_discovered
            (Wire.Link_discovered
               {
                 ld_src_switch = origin_switch;
                 ld_src_port = origin_port;
                 ld_dst_switch = pi_switch;
                 ld_dst_port = pi_port;
               })
        | None ->
          Context.emit ctx ~size:Wire.size_packet_in ~kind:Wire.k_app_packet_in
            (Wire.App_packet_in
               {
                 api_switch = pi_switch;
                 api_port = pi_port;
                 api_src_mac = pi_src_mac;
                 api_dst_mac = pi_dst_mac;
               }))
      | _ -> ())

let on_app_packet_out =
  App.handler ~cost:driver_cost ~kind:Wire.k_app_packet_out ~map:map_per_switch
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.App_packet_out { apo_switch; apo_port; apo_in_port; apo_dst_mac } ->
        Context.send_to ctx (Channels.Switch apo_switch) ~size:Wire.size_packet_out
          ~kind:Wire.k_packet_out
          (Wire.Packet_out
             {
               po_switch = apo_switch;
               po_port = apo_port;
               po_in_port = apo_in_port;
               po_dst_mac = apo_dst_mac;
             })
      | _ -> ())

let on_wire_port_status =
  App.handler ~cost:driver_cost ~kind:Wire.k_port_status ~map:map_per_switch
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Port_status { ps_switch; ps_port; ps_up } ->
        Context.emit ctx ~size:Wire.size_small ~kind:Wire.k_port_event
          (Wire.Port_event { pe_switch = ps_switch; pe_port = ps_port; pe_up = ps_up })
      | _ -> ())

let app () =
  App.create ~name:app_name ~dicts:[ dict_switches ] ~pinned:true
    [
      on_hello;
      on_echo_request;
      on_wire_stat_reply;
      on_app_stat_query;
      on_app_flow_mod;
      on_wire_packet_in;
      on_app_packet_out;
      on_wire_port_status;
    ]
