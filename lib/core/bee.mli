(** A bee, the deliveries queued in its mailbox, and its life.

    The platform creates bees and runs their handlers, {!Migration} moves
    and merges them, and {!Recovery} brings crashed ones back. This
    module owns every write to a bee's life: its status, its holds and
    its incarnation change only through the transitions below.

    {2 Life}

    {v
    status    enters by                       leaves by
    --------  ------------------------------  ---------------------------
    Active    create, revive, fail_over       crash, kill, fold
    Crashed   crash (its hive's process died)  revive, fail_over, kill
    Dead      kill, fold (merged away)         never
    v}

    {2 Holds}

    A hold stops a live bee from running without touching its state or
    mailbox; messages keep queueing. Each cause takes its own hold and
    only that cause releases it, so a bee stopped for two reasons stays
    stopped until both have ended. A bee runs a handler only when it is
    [Active], idle and holds nothing.

    {v
    hold        taken by                          released by
    ----------  --------------------------------  ---------------------------------
    Migrating   Platform.migrate_bee, at          the transfer: it lands, is lost,
                admission (reserves the           or its destination died
                destination's inbound cells)
    Merging     Migration.merge, on the winner    the merge, once its last loser
                and on each loser                 folded in (winner); the fold-in
                                                  (loser, which dies)
    Fenced      Platform.evict_hive, and a bee    the hive's rejoin or restart,
                created on a fenced hive          or the bee landing elsewhere
    v}

    Crash, kill, fold and fail over end the life the holds belong to, so
    they drop every hold; a dropped [Migrating] settles its destination's
    reservation there and then, since the transfer's own callbacks check
    for their hold and do nothing once it is gone. *)

type delivery = {
  d_to : int;
      (** the id of the bee routing picked: its arrival looks the bee up,
          then follows any merge's forwarding pointer *)
  d_msg : Message.t;  (** its [src] says where it came from; the delivery keeps no copy *)
  d_handler : App.handler;
  d_allowed : Mapping.t;
      (** the cells the handler may touch, fixed when the leg is routed,
          its linearization point: a leg forwarded to a merge winner
          visits the cells its original target held then, which the
          winner's state holds by the time it runs the leg; a cell the
          bee gains later is not visited by that leg. A Cells leg holds
          the mapping its map function returned, a [Key] or a [Cells],
          unwrapped; a Local leg its app's [Cells] of every dictionary
          wildcard, built once per app; a Foreach leg a [Cells] of the
          owner's cells of the dictionary, filtered at routing *)
  d_outbox : Beehive_store.Mark.t;
      (** the mark [(sender bee, outbox seq)] when the message rides the
          exactly-once path, {!Beehive_store.Mark.none} otherwise: the
          receiver dedups against its durable inbox and acks the sender
          once its own mark is durable. Sender -1 marks a virtual id given
          to injected/system messages — deduped but never acked. An
          immediate int, so the delivery stays six fields. *)
  mutable d_attempts : int;  (** handler attempts already failed *)
}

type hold =
  | Migrating of { dst : int; cells : int }
      (** a move to hive [dst] is admitted or in flight; [cells] are
          counted in [dst]'s inbound reservation *)
  | Merging  (** a merge this bee takes part in waits for a busy loser *)
  | Fenced  (** the bee's hive is evicted; its process may still run *)

type t = {
  id : int;
  app : App.t;
  mutable hive : int;
  mutable state : State.t;
  mailbox : delivery Mailbox.t;
  stats : Stats.t;
  is_local : bool;
  mutable busy : bool;
  mutable handling : delivery;
      (** from dispatch until its completion event runs, the delivery
          whose handler that event runs; the platform's idle placeholder
          otherwise *)
  mutable handling_cost : Beehive_sim.Simtime.t;  (** [handling]'s handler cost *)
  mutable handling_event : Beehive_sim.Engine.handle;
      (** the completion event scheduled for [handling];
          {!Beehive_sim.Engine.none} once the life it was scheduled in
          ended (crash, kill, fold, fail over) *)
  mutable completion : unit -> unit;
      (** set once, as the bee is created: its one completion callback,
          scheduled once per dispatched delivery. It runs the handler of
          [handling] only if it is running as [handling_event], so a
          completion that an ended life or an earlier dispatch left
          queued fires as a no-op *)
  mutable env : Context.env;
      (** its handlers' constants: its [From_bee] source, shared by every
          message it emits as the one record of its origin, its seeded
          random stream, the platform's clock and late sink, and its one
          transaction, reopened for every delivery. The platform rebuilds
          it, source and all, when the bee has moved *)
  mutable status : [ `Active | `Crashed | `Dead ];
      (** written only by this module. [`Crashed] when the bee's hive
          failed but its dictionaries are durable: the registry keeps its
          cells and the hive's restart revives it from the storage
          engine. *)
  mutable holds : hold list;
      (** written only by this module and read elsewhere only through
          {!holds}, {!held} and {!runnable} *)
  mutable incarnation : int;
      (** bumped when the bee fails over to another hive, so a handler
          retry scheduled on the hive it left is discarded. A crash
          leaves it alone: the hive's wipe mark ({!Hives.since_wipe})
          voids what the crash erased *)
  mutable on_idle : (unit -> unit) list;
      (** continuations run when the current handler (if any) completes,
          newest first; a merge waits there for a busy loser, and a move
          admitted while the bee was busy starts there *)
  mutable forwarded_to : t option;
      (** set when this bee was merged away: in-flight messages follow *)
  mutable stale_shadow : (string * string * Value.t) list option;
      (** stale-read bug only: the pre-migration snapshot a freshly-landed
          bee wrongly keeps serving reads from *)
  mutable stale_until : Beehive_sim.Simtime.t;
}

val create :
  id:int -> app:App.t -> hive:int -> is_local:bool -> env:Context.env -> idle:delivery -> t
(** An active bee holding nothing, with an empty mailbox whose free
    slots hold [idle]. Its [completion] is [ignore] until the caller
    sets it. *)

(** {2 Holds} *)

val take : Hives.t -> t -> hold -> unit
(** Adds the hold. [Migrating] also reserves its cells as inbound to its
    destination. *)

val release : Hives.t -> t -> hold -> bool
(** Removes this hold (compared physically, so a cause releases only the
    value it took) and settles a [Migrating] reservation. Returns whether
    the bee became runnable, that is active and holding nothing; the
    caller then resumes it. False if the hold was not held. *)

val holds : t -> hold -> bool
(** Whether the bee holds this hold, compared physically. *)

val held : t -> bool
(** Whether the bee holds anything. *)

val runnable : t -> bool
(** Active and holding nothing: the bee runs its mailbox whenever idle. *)

val arrive : Hives.t -> t -> hold -> bool
(** The move of hold [Migrating { dst; _ }] arrived: the bee is homed on
    [dst] and releases that hold and, having left its fenced hive, any
    [Fenced]. Returns whether it became runnable. *)

(** {2 Ends of a life} *)

val crash : Hives.t -> t -> unit
(** The bee's hive process died: [`Crashed], idle, an empty mailbox
    and no holds. *)

val kill : Hives.t -> t -> unit
(** The bee is gone for good: [`Dead], idle, an empty mailbox, no holds. *)

val fold : Hives.t -> t -> into:t -> unit
(** The bee was merged into [into]: killed, with a forwarding pointer to
    [into] and homed on [into]'s hive. Move its mailbox first. *)

val revive : t -> State.t -> unit
(** A crashed bee's hive restarted: [`Active] with the recovered state. *)

val fail_over : Hives.t -> t -> hive:int -> State.t -> unit
(** The bee restarts on [hive] from a replica's state: a new
    incarnation, idle, an empty mailbox, no holds, [`Active]. *)
