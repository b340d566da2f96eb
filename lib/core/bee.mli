(** A bee and the deliveries queued in its mailbox.

    Types only, shared by the platform, which creates bees and runs their
    handlers, {!Migration}, which moves and merges them, and {!Recovery},
    which brings crashed ones back. *)

type delivery = {
  d_msg : Message.t;
  d_handler : App.handler;
  d_allowed : Cell.Set.t;
      (** the cells the handler may touch, fixed when the leg is routed,
          its linearization point: a leg forwarded to a merge winner
          visits the cells its original target held then, which the
          winner's state holds by the time it runs the leg; a cell the
          bee gains later is not visited by that leg *)
  d_src_hive : int;  (** the hive the message came from; -1 for a system message *)
  d_outbox : (int * int) option;
      (** (sender bee, outbox seq) when the message rides the exactly-once
          path: the receiver dedups against its durable inbox and acks the
          sender once its own mark is durable. Sender -1 marks a virtual id
          given to injected/system messages — deduped but never acked. *)
  mutable d_attempts : int;  (** handler attempts already failed *)
}

type t = {
  id : int;
  app : App.t;
  mutable hive : int;
  mutable state : State.t;
  mailbox : delivery Mailbox.t;
  stats : Stats.t;
  is_local : bool;
  rng : Beehive_sim.Rng.t;
  mutable busy : bool;
  mutable handling : delivery;
      (** from dispatch until its completion event runs, the delivery
          whose handler that event runs; the platform's idle placeholder
          otherwise *)
  mutable handling_cost : Beehive_sim.Simtime.t;  (** [handling]'s handler cost *)
  mutable handling_incarnation : int;  (** [incarnation] when [handling] was dispatched *)
  mutable handling_event : Beehive_sim.Engine.handle;
      (** the completion event scheduled for [handling] *)
  mutable completion : unit -> unit;
      (** set once, as the bee is created: its one completion callback,
          scheduled once per
          dispatched delivery. It runs the handler of [handling] only if
          it is running as [handling_event] and [handling_incarnation]
          is still the bee's, so a completion a crash left queued fires
          as a no-op *)
  mutable source : Message.source;
      (** [From_bee] at the bee's hive, shared by every message it emits;
          rebuilt when the bee has moved *)
  mutable status : [ `Active | `Paused | `Crashed | `Dead ];
      (** [`Paused] while migrating or while a merge it participates in is
          in flight: incoming messages buffer in the mailbox. [`Crashed]
          when the bee's hive failed but its dictionaries are durable: the
          registry keeps its cells and the hive's restart revives it from
          the storage engine. *)
  mutable incarnation : int;
      (** bumped on crash so events scheduled against a previous life
          (handler completions, migration landings) are discarded *)
  mutable fenced : bool;
      (** the failure detector evicted this bee's hive while the process
          was (possibly) still running: the bee pauses with its state and
          mailbox intact, and resumes if the hive rejoins *)
  mutable pending_migration : (int * string) option;
  mutable on_idle : (unit -> unit) list;
      (** continuations run when the current handler (if any) completes;
          used by merge to wait for losers to quiesce *)
  mutable forwarded_to : t option;
      (** set when this bee was merged away: in-flight messages follow *)
  mutable stale_shadow : (string * string * Value.t) list option;
      (** stale-read bug only: the pre-migration snapshot a freshly-landed
          bee wrongly keeps serving reads from *)
  mutable stale_until : Beehive_sim.Simtime.t;
}
