(** At-least-once inter-hive delivery on top of the failable fabric.

    Every cross-hive platform message rides this layer: each directed
    hive pair carries its own sequence-number stream, receivers ack every
    copy they see and deduplicate by sequence number (a contiguous cutoff
    plus the sparse out-of-order set above it), and senders retransmit
    unacked messages with exponential backoff and jitter until acked or
    [max_attempts] is exhausted.

    On a healthy fabric ({!Channels.faulty} = false) {!send} degenerates
    to a single posted delivery with no sequencing, acks, or timers,
    so byte accounting and delivery latency are exactly those of the
    underlying {!Channels} — fault-free experiments are unaffected by the
    reliability machinery. *)

type t

val create :
  engine:Beehive_sim.Engine.t ->
  rng:Beehive_sim.Rng.t ->
  alive:(int -> bool) ->
  dedup:bool ->
  Channels.t ->
  t
(** [alive h] tells the receiver side whether hive [h]'s process is up;
    copies arriving at a dead hive evaporate (the sender keeps retrying,
    so a message can outlive a crash-restart of its destination). Pass a
    stream split from the engine RNG as [rng] (it drives retransmission
    jitter). [~dedup:false] injects the dedup-off bug: receivers deliver
    duplicate copies instead of suppressing them, which must trip the
    check harness's no-duplication monitor. *)

val send :
  t ->
  src:Channels.endpoint ->
  dst:Channels.endpoint ->
  bytes:int ->
  on_drop:(unit -> unit) ->
  'a Beehive_sim.Engine.lane ->
  'a ->
  unit
(** [send t ~src ~dst ~bytes ~on_drop lane v] reliably delivers one
    message: [lane]'s callback runs on [v] exactly once at the simulated
    arrival instant (duplicates are suppressed at the receiver), or
    [on_drop] runs if every attempt is lost. On a healthy fabric the
    message is one {!Beehive_sim.Engine.post} and allocates nothing;
    the reliable path keeps a record and a closure per message. *)

val close_hive : t -> int -> unit
(** Frees every directed link touching the hive: pending retransmission
    timers are cancelled and sequencing state discarded. Used when a hive
    is decommissioned — a graceful departure, so any in-flight message
    whose payload never reached its receiver has [on_drop] fired (the
    sender must settle its accounting; an abandoned migration transfer
    would otherwise pin the destination's drain forever). Messages that
    were delivered but not yet acked are simply forgotten. *)

val crash_hive : t -> int -> unit
(** Crash semantics: the hive's process died, taking its in-memory
    transport state with it. Links it was sending on lose their in-flight
    window (timers cancelled, neither the lane's callback nor [on_drop] runs) but
    keep their sequence numbers: the restarted sender continues them, so
    a copy already on the wire at the crash, which still lands, cannot
    make the receiver treat a later message as its duplicate. Links it
    was receiving on lose the dedup cutoff and out-of-order set while the
    remote senders keep retransmitting: a retransmission racing the
    restart is then {e delivered again}. At-least-once survives a
    receiver crash; exactly-once needs a cutoff that survives it (the
    platform's durable inbox). *)

val in_flight : t -> int -> int
(** Messages sent on the reliable path to or from the hive whose payload
    has not reached the receiver yet. *)

(** {2 Counters} *)

val sent : t -> int  (** distinct messages accepted by {!send} *)

val delivered : t -> int  (** distinct messages delivered (first copies) *)

val retransmits : t -> int  (** extra copies sent by timeout *)

val retransmit_bytes : t -> int

val gauges : t -> (string * int) list
(** Every counter above as a [transport.*] gauge, plus [duplicates]
    (copies suppressed by receiver dedup), [exhausted] (messages dropped
    after [max_attempts]) and [pending] (unacked messages currently in
    flight). *)
