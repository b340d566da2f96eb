(** Simulated OpenFlow switches.

    Each agent models one dataplane switch: an OpenFlow connection to its
    master hive (registered as a platform IO endpoint), a flow table, the
    fixed-rate flows originating at the switch (whose byte counters answer
    stat requests), packet forwarding between adjacent agents, and
    LLDP-style link discovery. A {!cluster} owns all agents of a run. *)

type t
type cluster

val create_cluster : Beehive_core.Platform.t -> Beehive_net.Topology.t -> cluster

val add : cluster -> sw:int -> ?flows:Beehive_net.Flow.t array -> unit -> t
(** Registers the agent and its IO endpoint, with a port per topology
    neighbour plus one host port. Does not connect yet. *)

val get : cluster -> int -> t option
val flow_table : t -> Flow_table.t

val connect_all : cluster -> ?stagger:Beehive_sim.Simtime.t -> unit -> unit
(** Connects every agent, [stagger] apart (default 1 ms) to avoid a
    thundering herd at time zero. *)

val fail_link : cluster -> int -> int -> unit
(** Takes the link between two adjacent switches down: the dataplane
    stops forwarding across it and both endpoints report a
    [Port_status] (down) to their master hives. *)

val send_all_lldp : cluster -> unit

(** {2 Dataplane packets (learning-switch / virtualization scenarios)} *)

val inject_host_packet : t -> in_port:int -> src_mac:int64 -> dst_mac:int64 -> unit
(** A host attached to [in_port] sends a 1000-byte packet; the switch
    pipeline looks up the flow table, forwards hop by hop, or punts to the
    controller per the installed entries. *)

val packets_delivered : cluster -> int
(** Packets that reached a host port. *)

val packets_dropped : cluster -> int
