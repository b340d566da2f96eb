(** Per-message provenance and causation traces.

    Section 3: "We also store provenance and causation data for messages.
    For example, we store that packet out messages are emitted by the
    learning switch application upon receiving 80% of packet in's."
    A message's origin is its own [src]; this module is the platform's
    only record of causation, and it is opt-in: {!attach} registers a
    {!Platform.on_emit} hook, and a platform without one keeps no parent
    links. It records the actual causal links so control decisions can be
    explained: which stat reply triggered which traffic update, which
    update produced which FlowMod; {!causation_ratio} gives the
    aggregate.

    Events live in a bounded ring buffer; tracing a busy platform evicts
    the oldest links first. *)

type event = {
  ev_msg : int;  (** message id *)
  ev_parent : int option;  (** message being processed when this was emitted *)
  ev_kind : string;
  ev_emitter : Message.source;  (** the message's own [src] *)
  ev_at : Beehive_sim.Simtime.t;
}

type t

val attach : Platform.t -> capacity:int -> t
(** Starts recording every message created on the platform, keeping the
    newest [capacity] events. *)

val recorded : t -> int
(** Events currently held (bounded by capacity). *)

val events : t -> event list
(** All recorded events, oldest first. *)

val chain : t -> int -> event list
(** The causal chain ending at a message: root first. Truncated if
    ancestors were evicted. *)

val children : t -> int -> event list
(** Messages emitted while processing the given message, in order. *)

val render_tree : t -> Format.formatter -> int -> unit
(** Pretty-prints the causal tree rooted at a message id. *)

val causation_ratio : t -> in_kind:string -> out_kind:string -> float option
(** Among recorded messages of [in_kind], the average number of
    [out_kind] messages each one caused — the paper's "80% of packet
    in's" style statistic. [None] if no [in_kind] messages recorded. *)
