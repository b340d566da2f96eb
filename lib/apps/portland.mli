(** PortLand-style location addressing (Section 4, reference [16]).

    PortLand gives every host a hierarchical pseudo-MAC (PMAC) encoding
    its pod, position and port, and resolves ARP through a fabric
    manager. The paper claims such designs "can be easily implemented in
    a distributed fashion" on Beehive — and they can, in two sharded
    apps:

    - [portland.fabric] assigns PMACs; its dictionary keys by {e pod}, so
      each pod's assignments are one cell placed near the pod's switches;
    - [portland.arp] proxies ARP; its dictionary keys by {e actual MAC},
      so resolution load spreads across the platform instead of hitting
      the centralized fabric manager of the original design. *)

val fabric_app_name : string  (** ["portland.fabric"] *)

val dict_pods : string  (** ["pods"] — key: pod id *)

(** {2 PMAC encoding} *)

val make_pmac : pod:int -> position:int -> port:int -> vmid:int -> int64
val pmac_pod : int64 -> int
val pmac_position : int64 -> int
val pmac_port : int64 -> int
val pmac_vmid : int64 -> int

(** {2 Messages} *)

val k_host_seen : string
val k_arp_request : string
val k_arp_reply : string

type Beehive_core.Message.payload +=
  | Host_seen of { hs_pod : int; hs_position : int; hs_port : int; hs_amac : int64 }
      (** an edge switch (pod, position) saw a host on a port *)
  | Pmac_assigned of { pa_amac : int64; pa_pmac : int64 }
  | Arp_request of { ar_amac : int64; ar_token : int; ar_switch : int }
  | Arp_reply of { ap_token : int; ap_amac : int64; ap_pmac : int64 option }

val fabric_app : unit -> Beehive_core.App.t
val arp_app : unit -> Beehive_core.App.t

(** {2 Inspection} *)

val pmac_of : Beehive_core.Platform.t -> amac:int64 -> int64 option
(** The PMAC recorded for an actual MAC in the ARP app's shards. *)

val pod_assignments : Beehive_core.Platform.t -> pod:int -> (int64 * int64) list
(** [(amac, pmac)] pairs assigned within a pod. *)
