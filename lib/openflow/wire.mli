(** OpenFlow-style protocol vocabulary.

    Wire messages travel between a switch and its master hive's driver
    bee; app-level messages are what the driver emits into (and accepts
    from) the rest of the control plane — "Init, Collect, Query, and Route
    depend on an OpenFlow driver that emits SwitchJoineds and StatReplys
    and can process Querys and FlowMods" (Section 2). *)

type flow_stats = {
  fs_flows : int array;  (** flow ids *)
  fs_srcs : int array;  (** originating switch of each flow *)
  fs_dsts : int array;  (** destination switch of each flow *)
  fs_bytes : float array;  (** cumulative byte counter of each flow *)
}
(** A flow-stats reply, packed: entry [i] of every array describes one
    flow. A switch builds the three id arrays once for its flow set and
    shares them across its replies, filling only [fs_bytes] per reply.
    Nothing mutates the arrays once the reply is sent. *)

val n_stats : flow_stats -> int
(** The number of flows a reply describes. *)

(** {2 Wire messages (switch <-> driver)} *)

type Beehive_core.Message.payload +=
  | Hello of { h_switch : int; h_n_ports : int }
  | Echo_request of { er_switch : int }
  | Echo_reply of { ep_switch : int }
  | Packet_in of {
      pi_switch : int;
      pi_port : int;
      pi_src_mac : int64;
      pi_dst_mac : int64;
      pi_lldp : (int * int) option;  (** (origin switch, origin port) for LLDP *)
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

(** {2 App-level messages (driver <-> control apps)} *)

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
      (** driver-relayed port status change *)

(** {2 Kind strings} *)

val k_hello : string
val k_echo_request : string
val k_echo_reply : string
val k_packet_in : string
val k_packet_out : string
val k_flow_mod : string
val k_stat_request : string
val k_stat_reply : string
val k_port_status : string
val k_switch_joined : string
val k_app_stat_reply : string
val k_app_stat_query : string
val k_app_flow_mod : string
val k_app_packet_in : string
val k_app_packet_out : string
val k_link_discovered : string
val k_port_event : string

(** {2 Size estimates (bytes on the wire)} *)

val size_hello : int
val size_stat_request : int
val size_stat_reply : int -> int
(** [size_stat_reply n] for [n] flow stats. *)

val size_flow_mod : int
val size_packet_in : int
val size_packet_out : int
val size_small : int
