(** Corybantic-style coordination of competing control modules.

    Section 6: "one can implement the Corybantic Coordinator as a Beehive
    application and implement control modules as applications that
    exchange objective messages." Corybantic (Mogul et al., HotNets-XII)
    resolves conflicts between SDN control modules by having every module
    propose changes each round, every module evaluate every proposal in a
    common currency, and a coordinator adopt the highest-total proposal.

    Here the coordinator is a centralized Beehive app (whole-dictionary
    cells) and each module is its own app; they interact only through
    messages, so the platform is free to place them anywhere. *)

(** {2 Message vocabulary} *)

val k_adopted : string

type Beehive_core.Message.payload +=
  | Round_start of { rs_round : int }
  | Proposal of {
      pr_round : int;
      pr_module : string;
      pr_id : int;
      pr_kind : string;  (** e.g. ["reroute"], ["power-off"] *)
      pr_arg : int;
    }
  | Evaluation of { ev_round : int; ev_module : string; ev_id : int; ev_value : float }
  | Adopted of { ad_round : int; ad_id : int; ad_module : string; ad_value : float }

(** {2 Applications} *)

val coordinator_app : unit -> Beehive_core.App.t
(** Opens a round every second: collects proposals
    and evaluations, adopts the proposal with the highest summed value
    (ties to the lowest proposal id), emits {!k_adopted}, and announces
    the next round. Rounds with no proposals adopt nothing. *)

val module_app :
  name:string ->
  propose:(round:int -> (string * int) option) ->
  evaluate:(kind:string -> arg:int -> float) ->
  Beehive_core.App.t
(** A control module: proposes on every round start (when [propose]
    returns a change) and evaluates every proposal — its own included —
    with [evaluate]. *)

(** {2 Inspection} *)

val adopted : Beehive_core.Platform.t -> (int * int * string * float) list
(** [(round, proposal id, proposing module, total value)] decisions so
    far, by round. *)

val current_round : Beehive_core.Platform.t -> int
