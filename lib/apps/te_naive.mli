(** The naive Traffic Engineering application — Figure 2 of the paper,
    verbatim in structure:

    - [Init] on [SwitchJoined], with [S\[switch\]];
    - [Query] every second, foreach entry of [S];
    - [Collect] on [StatReply], with [S\[switch\]];
    - [Route] every second, with the whole [S] and [T].

    [Init], [Query], [Collect] and the topology view [T] are the shared
    handlers of {!Te_common}; [Collect] only folds the observations in.
    This module holds [Route]. Because [Route] maps whole dictionaries,
    the platform collocates every cell of [S] and [T] on one bee: the
    application is effectively centralized — exactly the design
    bottleneck Section 5 instruments (Figure 4 a, d). *)

val app_name : string
(** ["te.naive"] *)

val dict_stats : string  (** ["flow_stats"] — the paper's S *)

val app : unit -> Beehive_core.App.t
(** Re-routes the flows above {!Te_common.delta}. Stats are queried and
    routes recomputed once a second. *)

val rerouted_count : Beehive_core.Platform.t -> int
(** How many flows [Route] has re-steered: the handled marks in [S],
    which [Route] sets exactly when it emits a flow's FlowMod (reads
    Route's bee state; 0 if Route has not run yet). *)
