(** The OpenFlow driver, written as a Beehive application.

    The driver owns one cell per switch in its [switches] dictionary, so
    "an OpenFlow driver accessing the state of a switch" (Section 3) is a
    per-switch bee pinned to the switch's master hive. It translates wire
    messages into app-level events ([Switch_joined], [Stat_reply],
    [App_packet_in], [Link_discovered]) and app-level commands
    ([Stat_query], [App_flow_mod], [App_packet_out]) into wire messages. *)

val app_name : string
(** ["openflow.driver"] *)

val dict_switches : string
(** ["switches"] — one key (the decimal switch id) per connected switch. *)

type Beehive_core.Value.t +=
  | V_switch of { v_master : int; v_n_ports : int; v_joined_at : float }

val app : unit -> Beehive_core.App.t
(** The driver application (pinned: its bees never migrate away from
    their switch's master hive). *)
