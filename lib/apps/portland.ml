module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Platform = Beehive_core.Platform

let fabric_app_name = "portland.fabric"
let arp_app_name = "portland.arp"
let dict_pods = "pods"
let dict_arp = "arp_table"
let k_host_seen = "portland.host_seen"
let k_pmac_assigned = "portland.pmac_assigned"
let k_arp_request = "portland.arp_request"
let k_arp_reply = "portland.arp_reply"

(* PMAC layout: pod:16 | position:16 | port:16 | vmid:16. *)
let make_pmac ~pod ~position ~port ~vmid =
  let f shift v = Int64.shift_left (Int64.of_int (v land 0xFFFF)) shift in
  Int64.logor (f 48 pod) (Int64.logor (f 32 position) (Int64.logor (f 16 port) (f 0 vmid)))

let field shift pmac = Int64.to_int (Int64.logand (Int64.shift_right_logical pmac shift) 0xFFFFL)
let pmac_pod = field 48
let pmac_position = field 32
let pmac_port = field 16
let pmac_vmid = field 0

type Message.payload +=
  | Host_seen of { hs_pod : int; hs_position : int; hs_port : int; hs_amac : int64 }
  | Pmac_assigned of { pa_amac : int64; pa_pmac : int64 }
  | Arp_request of { ar_amac : int64; ar_token : int; ar_switch : int }
  | Arp_reply of { ap_token : int; ap_amac : int64; ap_pmac : int64 option }

(* Per-pod fabric state: amac (hex) -> pmac, plus the next vmid. *)
type pod_state = {
  vp_assignments : (string * int64) list;
  vp_next_vmid : int;
}

type Value.t +=
  | V_pod of pod_state
  | V_pmac of int64

let () =
  Value.register_size (function
    | V_pod { vp_assignments; _ } -> Some (16 + (24 * List.length vp_assignments))
    | V_pmac _ -> Some 8
    | _ -> None)

let mac_key mac = Printf.sprintf "%Lx" mac

(* --- fabric: PMAC assignment, sharded by pod ------------------------- *)

let on_host_seen =
  App.handler ~kind:k_host_seen
    ~map:(fun msg ->
      match msg.Message.payload with
      | Host_seen { hs_pod; _ } -> Mapping.with_key dict_pods (string_of_int hs_pod)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Host_seen { hs_pod; hs_position; hs_port; hs_amac } ->
        let key = string_of_int hs_pod in
        let pod =
          match Context.get ctx ~dict:dict_pods ~key with
          | Some (V_pod p) -> p
          | Some _ | None -> { vp_assignments = []; vp_next_vmid = 1 }
        in
        (match List.assoc_opt (mac_key hs_amac) pod.vp_assignments with
        | Some pmac ->
          (* Re-announce (host moved ports keeps old vmid semantics out of
             scope; idempotent re-publication). *)
          Context.emit ctx ~size:24 ~kind:k_pmac_assigned
            (Pmac_assigned { pa_amac = hs_amac; pa_pmac = pmac })
        | None ->
          let pmac =
            make_pmac ~pod:hs_pod ~position:hs_position ~port:hs_port ~vmid:pod.vp_next_vmid
          in
          Context.set ctx ~dict:dict_pods ~key
            (V_pod
               {
                 vp_assignments = (mac_key hs_amac, pmac) :: pod.vp_assignments;
                 vp_next_vmid = pod.vp_next_vmid + 1;
               });
          Context.emit ctx ~size:24 ~kind:k_pmac_assigned
            (Pmac_assigned { pa_amac = hs_amac; pa_pmac = pmac }))
      | _ -> ())

let fabric_app () = App.create ~name:fabric_app_name ~dicts:[ dict_pods ] [ on_host_seen ]

(* --- ARP proxy, sharded by actual MAC -------------------------------- *)

let map_by_amac amac = Mapping.with_key dict_arp (mac_key amac)

let on_pmac_assigned =
  App.handler ~kind:k_pmac_assigned
    ~map:(fun msg ->
      match msg.Message.payload with
      | Pmac_assigned { pa_amac; _ } -> map_by_amac pa_amac
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Pmac_assigned { pa_amac; pa_pmac } ->
        Context.set ctx ~dict:dict_arp ~key:(mac_key pa_amac) (V_pmac pa_pmac)
      | _ -> ())

let on_arp_request =
  App.handler ~kind:k_arp_request
    ~map:(fun msg ->
      match msg.Message.payload with
      | Arp_request { ar_amac; _ } -> map_by_amac ar_amac
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Arp_request { ar_amac; ar_token; _ } ->
        let pmac =
          match Context.get ctx ~dict:dict_arp ~key:(mac_key ar_amac) with
          | Some (V_pmac p) -> Some p
          | Some _ | None -> None
        in
        Context.emit ctx ~size:24 ~kind:k_arp_reply
          (Arp_reply { ap_token = ar_token; ap_amac = ar_amac; ap_pmac = pmac })
      | _ -> ())

let arp_app () =
  App.create ~name:arp_app_name ~dicts:[ dict_arp ] [ on_pmac_assigned; on_arp_request ]

(* --- inspection -------------------------------------------------------- *)

let pmac_of platform ~amac =
  match Platform.read platform ~app:arp_app_name ~dict:dict_arp ~key:(mac_key amac) with
  | Some (V_pmac p) -> Some p
  | _ -> None

let pod_assignments platform ~pod =
  match Platform.read platform ~app:fabric_app_name ~dict:dict_pods ~key:(string_of_int pod) with
  | Some (V_pod { vp_assignments; _ }) ->
    List.map (fun (m, p) -> (Int64.of_string ("0x" ^ m), p)) vp_assignments
  | _ -> []
