module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Platform = Beehive_core.Platform
module Simtime = Beehive_sim.Simtime
module Wire = Beehive_openflow.Wire
module Flow_table = Beehive_openflow.Flow_table

let app_name = "l2.learning"
let dict_macs = "mac_tables"
let key_of_switch = string_of_int
let mac_key mac = Printf.sprintf "%Lx" mac

type Value.t += V_mac_table of (string * int) list  (* mac (hex) -> port *)

let () =
  Value.register_size (function
    | V_mac_table l -> Some (8 + (16 * List.length l))
    | _ -> None)

let table_of ctx key =
  match Context.get ctx ~dict:dict_macs ~key with
  | Some (V_mac_table t) -> t
  | Some _ | None -> []

let on_packet_in =
  App.handler
    ~cost:(fun _ -> Simtime.of_us 15)
    ~kind:Wire.k_app_packet_in
    ~map:(fun msg ->
      match msg.Message.payload with
      | Wire.App_packet_in { api_switch; _ } ->
        Mapping.with_key dict_macs (key_of_switch api_switch)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.App_packet_in { api_switch; api_port; api_src_mac; api_dst_mac } ->
        let key = key_of_switch api_switch in
        let table = table_of ctx key in
        (* Learn the source. *)
        let table =
          let k = mac_key api_src_mac in
          if List.assoc_opt k table = Some api_port then table
          else (k, api_port) :: List.remove_assoc k table
        in
        Context.set ctx ~dict:dict_macs ~key (V_mac_table table);
        (* Forward: known destination gets an exact flow and a packet-out;
           unknown destinations flood. *)
        (match List.assoc_opt (mac_key api_dst_mac) table with
        | Some out_port ->
          Context.emit ctx ~size:Wire.size_flow_mod ~kind:Wire.k_app_flow_mod
            (Wire.App_flow_mod
               {
                 Flow_table.fm_switch = api_switch;
                 fm_command = Flow_table.Add;
                 fm_priority = 100;
                 fm_match = Flow_table.match_dst_mac api_dst_mac;
                 fm_actions = [ Flow_table.Output out_port ];
               });
          Context.emit ctx ~size:Wire.size_packet_out ~kind:Wire.k_app_packet_out
            (Wire.App_packet_out
               {
                 apo_switch = api_switch;
                 apo_port = out_port;
                 apo_in_port = api_port;
                 apo_dst_mac = api_dst_mac;
               })
        | None ->
          Context.emit ctx ~size:Wire.size_packet_out ~kind:Wire.k_app_packet_out
            (Wire.App_packet_out
               {
                 apo_switch = api_switch;
                 apo_port = -1;
                 apo_in_port = api_port;
                 apo_dst_mac = api_dst_mac;
               }))
      | _ -> ())

let app () = App.create ~name:app_name ~dicts:[ dict_macs ] [ on_packet_in ]

let learned_port platform ~switch ~mac =
  match Platform.read platform ~app:app_name ~dict:dict_macs ~key:(key_of_switch switch) with
  | Some (V_mac_table t) -> List.assoc_opt (mac_key mac) t
  | _ -> None
