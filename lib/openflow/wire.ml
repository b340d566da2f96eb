type flow_stats = {
  fs_flows : int array;
  fs_srcs : int array;
  fs_dsts : int array;
  fs_bytes : float array;
}

let n_stats s = Array.length s.fs_flows

type Beehive_core.Message.payload +=
  | Hello of { h_switch : int; h_n_ports : int }
  | Echo_request of { er_switch : int }
  | Echo_reply of { ep_switch : int }
  | Packet_in of {
      pi_switch : int;
      pi_port : int;
      pi_src_mac : int64;
      pi_dst_mac : int64;
      pi_lldp : (int * int) option;
    }
  | Packet_out of {
      po_switch : int;
      po_port : int;  (** negative = flood *)
      po_in_port : int;  (** ingress to exclude when flooding *)
      po_dst_mac : int64;
    }
  | Flow_mod of Flow_table.mod_msg
  | Flow_stat_request of { fsq_switch : int }
  | Flow_stat_reply of { fsr_switch : int; fsr_stats : flow_stats }
  | Port_status of { ps_switch : int; ps_port : int; ps_up : bool }

type Beehive_core.Message.payload +=
  | Switch_joined of { sj_switch : int; sj_master : int }
  | Switch_left of { sl_switch : int }
  | Stat_reply of { sr_switch : int; sr_stats : flow_stats }
  | Stat_query of { sq_switch : int }
  | App_flow_mod of Flow_table.mod_msg
  | App_packet_in of {
      api_switch : int;
      api_port : int;
      api_src_mac : int64;
      api_dst_mac : int64;
    }
  | App_packet_out of {
      apo_switch : int;
      apo_port : int;
      apo_in_port : int;
      apo_dst_mac : int64;
    }
  | Link_discovered of {
      ld_src_switch : int;
      ld_src_port : int;
      ld_dst_switch : int;
      ld_dst_port : int;
    }
  | Port_event of { pe_switch : int; pe_port : int; pe_up : bool }

let k_hello = "of.hello"
let k_echo_request = "of.echo_request"
let k_echo_reply = "of.echo_reply"
let k_packet_in = "of.packet_in"
let k_packet_out = "of.packet_out"
let k_flow_mod = "of.flow_mod"
let k_stat_request = "of.flow_stat_request"
let k_stat_reply = "of.flow_stat_reply"
let k_port_status = "of.port_status"
let k_switch_joined = "driver.switch_joined"
let k_app_stat_reply = "driver.stat_reply"
let k_app_stat_query = "driver.stat_query"
let k_app_flow_mod = "driver.flow_mod"
let k_app_packet_in = "driver.packet_in"
let k_app_packet_out = "driver.packet_out"
let k_link_discovered = "driver.link_discovered"
let k_port_event = "driver.port_event"

let size_hello = 16
let size_stat_request = 16
let size_stat_reply n = 16 + (24 * n)
let size_flow_mod = 72
let size_packet_in = 128
let size_packet_out = 128
let size_small = 16
