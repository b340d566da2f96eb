module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Platform = Beehive_core.Platform
module Wire = Beehive_openflow.Wire

let app_name = "netvirt"
let dict_vnets = "vnets"
let k_create = "nv.create_vnet"
let k_attach = "nv.attach_port"
let k_detach = "nv.detach_port"
let k_packet = "nv.packet"
let k_isolation_drop = "nv.isolation_drop"

type Message.payload +=
  | Create_vnet of { cv_vnet : string; cv_tenant : string }
  | Attach_port of { ap_vnet : string; ap_switch : int; ap_port : int; ap_mac : int64 }
  | Detach_port of { dp_vnet : string; dp_mac : int64 }
  | Vn_packet of { vp_vnet : string; vp_src_mac : int64; vp_dst_mac : int64 }
  | Isolation_drop of { id_vnet : string; id_dst_mac : int64 }

type vnet = {
  v_tenant : string;
  v_ports : (int64 * int * int) list;  (* mac, switch, port *)
}

type Value.t += V_vnet of vnet

let () =
  Value.register_size (function
    | V_vnet v -> Some (16 + String.length v.v_tenant + (20 * List.length v.v_ports))
    | _ -> None)

let vnet_of_payload = function
  | Create_vnet { cv_vnet; _ } -> Some cv_vnet
  | Attach_port { ap_vnet; _ } -> Some ap_vnet
  | Detach_port { dp_vnet; _ } -> Some dp_vnet
  | Vn_packet { vp_vnet; _ } -> Some vp_vnet
  | _ -> None

let map_per_vnet (msg : Message.t) =
  match vnet_of_payload msg.Message.payload with
  | Some vn -> Mapping.with_key dict_vnets vn
  | None -> Mapping.Drop

let get_vnet ctx vn =
  match Context.get ctx ~dict:dict_vnets ~key:vn with
  | Some (V_vnet v) -> Some v
  | Some _ | None -> None

let on_create =
  App.handler ~kind:k_create ~map:map_per_vnet (fun ctx msg ->
      match msg.Message.payload with
      | Create_vnet { cv_vnet; cv_tenant } ->
        if get_vnet ctx cv_vnet = None then
          Context.set ctx ~dict:dict_vnets ~key:cv_vnet
            (V_vnet { v_tenant = cv_tenant; v_ports = [] })
      | _ -> ())

let on_attach =
  App.handler ~kind:k_attach ~map:map_per_vnet (fun ctx msg ->
      match msg.Message.payload with
      | Attach_port { ap_vnet; ap_switch; ap_port; ap_mac } -> (
        match get_vnet ctx ap_vnet with
        | Some v ->
          let ports =
            (ap_mac, ap_switch, ap_port)
            :: List.filter (fun (m, _, _) -> m <> ap_mac) v.v_ports
          in
          Context.set ctx ~dict:dict_vnets ~key:ap_vnet (V_vnet { v with v_ports = ports })
        | None -> ())
      | _ -> ())

let on_detach =
  App.handler ~kind:k_detach ~map:map_per_vnet (fun ctx msg ->
      match msg.Message.payload with
      | Detach_port { dp_vnet; dp_mac } -> (
        match get_vnet ctx dp_vnet with
        | Some v ->
          Context.set ctx ~dict:dict_vnets ~key:dp_vnet
            (V_vnet { v with v_ports = List.filter (fun (m, _, _) -> m <> dp_mac) v.v_ports })
        | None -> ())
      | _ -> ())

let on_packet =
  App.handler ~kind:k_packet ~map:map_per_vnet (fun ctx msg ->
      match msg.Message.payload with
      | Vn_packet { vp_vnet; vp_dst_mac; _ } -> (
        match get_vnet ctx vp_vnet with
        | Some v -> (
          match List.find_opt (fun (m, _, _) -> m = vp_dst_mac) v.v_ports with
          | Some (_, sw, port) ->
            Context.emit ctx ~size:Wire.size_packet_out ~kind:Wire.k_app_packet_out
              (Wire.App_packet_out
                 { apo_switch = sw; apo_port = port; apo_in_port = 0; apo_dst_mac = vp_dst_mac })
          | None ->
            (* Destination not in this VN: isolation holds, packet drops. *)
            Context.emit ctx ~size:16 ~kind:k_isolation_drop
              (Isolation_drop { id_vnet = vp_vnet; id_dst_mac = vp_dst_mac }))
        | None -> ())
      | _ -> ())

let app () =
  App.create ~name:app_name ~dicts:[ dict_vnets ]
    [ on_create; on_attach; on_detach; on_packet ]

let read_vnet platform vn =
  match Platform.read platform ~app:app_name ~dict:dict_vnets ~key:vn with
  | Some (V_vnet x) -> Some x
  | _ -> None

let vnet_ports platform ~vnet =
  match read_vnet platform vnet with Some v -> v.v_ports | None -> []

let vnet_tenant platform ~vnet =
  match read_vnet platform vnet with Some v -> Some v.v_tenant | None -> None
