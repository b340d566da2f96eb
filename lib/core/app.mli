(** Control applications.

    "We model a control application as a set of functions that are
    triggered by asynchronous messages and can emit further messages"
    (Section 2, Figure 1). An application declares its state dictionaries,
    a set of message handlers — each with its [map] (the [with]/[foreach]
    clause) and its body — and optional periodic timers (the paper's
    [on TimeOut(1sec)] clauses). *)

type handler = {
  on_kind : string;  (** message kind this handler is triggered by *)
  map : Message.t -> Mapping.t;
      (** the generated [Map(A, M)] function: which cells the body needs *)
  rcv : Context.t -> Message.t -> unit;  (** the handler body *)
  cost : Message.t -> Beehive_sim.Simtime.t;
      (** simulated CPU time to process one message *)
}

type timer = {
  timer_kind : string;  (** kind of the emitted tick message *)
  period : Beehive_sim.Simtime.t;
  tick_payload : now:Beehive_sim.Simtime.t -> Message.payload;
  tick_size : int;
}

type t = {
  name : string;
  dicts : string list;  (** declared state dictionaries *)
  handlers : handler list;
  timers : timer list;
  replicated : bool;
      (** when true, this app's commits reach the platform's
          {!Platform.replicator} (e.g. {!Raft_replication}), and its bees
          fail over from the replica it holds *)
  pinned : bool;
      (** when true, this app's bees never migrate (e.g. the OpenFlow
          driver must stay on its switches' master hive) *)
}

val handler :
  ?cost:(Message.t -> Beehive_sim.Simtime.t) ->
  kind:string ->
  map:(Message.t -> Mapping.t) ->
  (Context.t -> Message.t -> unit) ->
  handler
(** [cost] defaults to a constant {!default_cost}. *)

val default_cost : Beehive_sim.Simtime.t

val timer :
  kind:string ->
  period:Beehive_sim.Simtime.t ->
  ?size:int ->
  (now:Beehive_sim.Simtime.t -> Message.payload) ->
  timer

val create :
  name:string ->
  ?dicts:string list ->
  ?timers:timer list ->
  ?replicated:bool ->
  ?pinned:bool ->
  handler list ->
  t
