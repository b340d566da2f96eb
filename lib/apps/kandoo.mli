(** Kandoo emulation (Section 4 and reference [7]).

    Kandoo splits control logic into frequent local functions running
    next to switches and a rare-event root controller. In Beehive the same
    split is two applications: [kandoo.local] keys its state by switch id
    (one bee per switch, automatically pushed toward the switch's master
    hive — the advantage over hand-placed Kandoo controllers), and
    [kandoo.root] maps its dictionary wholly (one centralized bee).

    The classic Kandoo workload is implemented: local elephant-flow
    detection feeding a central re-router. The local app's only handler
    is the shared TE [Collect] of {!Te_common}, whose reaction to a flow
    above the threshold is an [Elephant] to the root. *)

val local_app_name : string  (** ["kandoo.local"] *)

val dict_local : string  (** ["local_stats"] *)

type Beehive_core.Message.payload +=
  | Elephant of { el_flow : int; el_switch : int; el_rate : float }

val local_app : unit -> Beehive_core.App.t
(** Watches [Stat_reply] messages per switch; when a flow's observed rate
    first exceeds {!Te_common.delta}, emits an elephant message. *)

val root_app : unit -> Beehive_core.App.t
(** Records every reported elephant in its centralized dictionary. *)

val elephants : Beehive_core.Platform.t -> (int * int * float) list
(** [(flow, switch, rate)] recorded by the root, flow-sorted. *)
