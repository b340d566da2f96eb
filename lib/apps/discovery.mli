(** Topology discovery application.

    Consumes the driver's [Link_discovered] events (LLDP probes
    packet-in'd by neighbouring switches) and maintains a per-switch
    adjacency dictionary, remembering which local port reaches each
    neighbour. Emits a [topo.link_up] event the first time a link is
    confirmed in both directions, and a [topo.link_down] when a
    [Port_event] reports the port carrying a confirmed link dead —
    routing-style applications subscribe to both. *)

val k_link_down : string
(** ["topo.link_down"], emitted by each endpoint's cell when a port
    carrying a known link goes down. *)

type Beehive_core.Message.payload +=
  | Link_up of { lu_a : int; lu_b : int }
  | Link_down of { ld_a : int; ld_b : int }
      (** [ld_a] is the switch reporting the dead port, [ld_b] the
          neighbour behind it *)

val app : unit -> Beehive_core.App.t

val neighbors_of : Beehive_core.Platform.t -> switch:int -> int list
(** Inspection helper: neighbours currently recorded for a switch. *)
