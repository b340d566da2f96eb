(** The Beehive control platform.

    The runtime environment of Section 3: a cluster of hives hosting bees.
    Implements the "life of a message" — dispatch through generated map
    functions, ownership resolution against the registry (charging
    lock-service round trips on the control channel), bee creation, bee
    merging when previously-disjoint cell groups are joined, live
    migration, hive-local applications, periodic timers, and hive
    failover of replicated apps through an installed
    {!Dispatch.replicator} (e.g. {!Raft_replication}).

    The three stages of a message's life each have their module:
    {!Router} maps a message and sends each leg to its owning bee,
    {!Dispatch} runs the handler in its transaction and commits and emits
    what it did, and {!Lifecycle} carries out the hive transitions around
    them. This module creates the three and ties their one knot: routing
    creates and resumes bees through dispatch, and dispatch routes what
    handlers emit.

    Three decisions live behind their own modules, which never call back
    into the platform: the per-hive lifecycle table ({!Hives}), the
    exactly-once ledger of each emit's delivery bookkeeping, pending
    acks, replay backoff and quarantine ({!Outbox}), and durable storage
    with the one record of un-acked emits, storage repair, its counters
    and dead letters ({!Beehive_store.Store}). The registry is the only
    record of cell ownership; what each lookup or claim costs on the
    control channel is {!Cell_locks}.

    All activity runs on the discrete-event {!Beehive_sim.Engine}; nothing
    here touches wall-clock time. *)

type t

(** A historical bug the check harness re-introduces to prove its
    monitors would have caught it ([--inject-bug]). *)
type bug =
  | Forwarding_off
      (** [forwarding]: messages in flight to a bee that was merged away
          are dropped instead of following its forwarding pointer to the
          surviving bee — the original in-flight-forwarding bug *)
  | Dedup_off
      (** [dedup-off]: receiver-side duplicate suppression off at both
          layers — the transport delivers every copy and receivers never
          consult their durable inbox marks, so a message delivered twice
          applies twice *)
  | Transport_dedup_off
      (** the transport half of [Dedup_off] alone; with durability on, the
          durable inbox must still mask every duplicate *)
  | Stale_read
      (** [stale-read]: a bee that completes a live migration keeps
          serving {e pure reads} from its pre-transfer snapshot for a few
          milliseconds after landing (writes and read-modify-write stay
          correct, so only client-visible semantics break — structural
          invariants cannot see it) *)
  | Lost_outbox
      (** [lost-outbox]: {!restart_hive} skips re-dispatching the un-acked
          durable outbox entries of revived bees (and drops them from the
          WAL), so a crash between fsync and transmission silently loses
          committed emits *)
  | Replay_dup
      (** [replay-dup]: {!restart_hive} wipes revived bees' durable inbox
          marks before replay, so replayed entries apply twice *)
  | Checksums_off
      (** [checksums-off]: the store skips WAL/snapshot frame verification
          (torn-tail detection stays on), so damaged bytes are served as
          truth *)

val bugs : (string * bug) list
(** The [--inject-bug] names, each with its bug. *)

type config = {
  n_hives : int;
  hive_capacity : int;  (** max cells hosted per hive *)
  durability : Beehive_store.Store.config option;
      (** when set, every non-local bee's dictionaries are shadowed by the
          {!Beehive_store.Store} engine: commits are write-ahead-logged
          with group commit, WALs compact into snapshots, crashed hives
          can {!restart_hive} with byte-identical state, and migration
          ships snapshot+WAL-tail packages. It also makes messaging
          exactly-once through the transactional outbox: a handler's
          emits buffer in its open transaction and are written to the
          bee's WAL in the same group-commit record as the state delta;
          only after the fsync are they handed to transport, tagged with
          durable per-sender sequence numbers. Receivers keep their dedup
          cutoff in their own WAL, so replay after {!restart_hive} (which
          re-sends every un-acked entry) is exactly-once end-to-end
          across crash, partition, migration and failover. Without
          durability, buffered emits are dispatched at commit and dedup is
          transport-level only. A background scrubber re-verifies
          {!scrub_budget_bytes} of cold WAL/snapshot bytes every 5 ms. *)
  inject : bug option;
      (** the bug this platform runs with, if any; it reaches only this
          platform's own transport and store, never another instance *)
}
(** Handler-failure containment holds with or without durability: an
    exception aborts the transaction (state delta and buffered emits
    discarded atomically) and the delivery is retried with backoff
    before the message is quarantined.

    Every handler completion is one engine event: it runs the handler
    body and then applies its effects (commit, routed emits, WAL
    appends, stats, hooks) in the same callback, so a run is one
    serial, deterministic schedule. Lock-service round trips go to
    hive 0. *)

val default_config : n_hives:int -> config

val create : Beehive_sim.Engine.t -> config -> t
val engine : t -> Beehive_sim.Engine.t
val channels : t -> Beehive_net.Channels.t

val datagram : t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit
(** Sends [bytes] once from hive [src] to hive [dst] on the failable
    wire ({!Beehive_net.Channels.transfer_result}) and runs the callback
    on arrival; a lost send runs nothing and is not retried. *)

val transport : t -> Beehive_net.Transport.t
(** The at-least-once delivery layer carrying cross-hive platform
    traffic (retransmit/duplicate counters live here). *)

val registry : t -> Registry.t
val n_hives : t -> int

(** {2 Setup} *)

val register_app : t -> App.t -> unit
(** Must be called before {!start}. App names must be unique. *)

val start : t -> unit
(** Arms every application timer. Call once after registering apps. Each
    tick originates on the lowest-numbered member hive that has not
    crashed; while every member is crashed, ticks are skipped. *)

val register_endpoint :
  t -> Beehive_net.Channels.endpoint -> (Message.t -> unit) -> unit
(** Connects an IO channel (e.g. a simulated switch): messages sent by
    handlers via {!Context.send_to} are delivered to the callback
    registered when they land, after channel latency. *)

(** {2 Message entry points} *)

val inject :
  t -> from:Beehive_net.Channels.endpoint -> ?size:int -> kind:string ->
  Message.payload -> unit
(** Injects an external message (switch event, administrative command).
    It enters the platform at the endpoint's hive (a switch's master
    hive) and is dispatched to all subscribed applications. *)

val emit_system : t -> hive:int -> size:int -> kind:string -> Message.payload -> unit
(** Emits a platform-internal message of [size] bytes as if from a timer
    on [hive]. Kept although only tests call it: it is how a caller
    drives the system-message path (a Local handler on every hive)
    without arming an app timer. *)

(** {2 Introspection} *)

type bee_view = {
  view_id : int;
  view_app : string;
  view_hive : int;
  view_cells : Cell.Set.t;
  view_queue : int;  (** messages waiting in the mailbox *)
  view_is_local : bool;
  view_alive : bool;
}

val bee_view : t -> int -> bee_view option

val live_bee_hive : t -> int -> int option
(** The hive of an active or paused bee; [None] for a crashed, dead or
    unknown one. Unlike {!bee_view}, it reads nothing else. *)

val live_bees : t -> bee_view list
val bee_stats : t -> int -> Stats.t option

val bee_state_entries : t -> int -> (string * string * Value.t) list
(** A copy of the whole bee's committed state, in (dict, key) order: the
    snapshot the state digests and the recovery-identity checks compare.
    To read one cell or one dictionary, use {!read} or {!read_dict},
    which copy nothing else. A crashed bee shows its last in-memory state
    until {!restart_hive} revives it from the WAL; compare
    {!durable_bee_entries}, which is what that revival will read. *)

(** {2 Durability}

    Present only when {!config.durability} is set. *)

val store : t -> (Value.t, Outbox.entry) Beehive_store.Store.t option
(** The storage engine instance. *)

val durable_bee_entries : t -> int -> (string * string * Value.t) list
(** What a crash right now would recover for this bee: snapshot plus WAL
    tail, excluding batches not yet group-committed. *)

val flush_durability : t -> unit
(** Forces a group commit (tests and controlled shutdowns). *)

val on_fsync : t -> (int -> unit) -> unit
(** Called with the hive id after each per-hive group commit becomes
    durable — the boundary at which a client acknowledgement of that
    hive's writes is crash-safe (see {!Beehive_check}'s linearizability
    workload). Never called without durability. *)

val total_fsyncs : t -> int

(** {2 Storage integrity}

    Every WAL record and snapshot carries a length+CRC32 frame
    ({!Beehive_store.Store}); these are the platform-level detection and
    repair paths built on it. All are no-ops without durability. The
    repair counters and the dead-letter record live in the store
    ({!Beehive_store.Store.local_rewrites},
    {!Beehive_store.Store.peer_repairs},
    {!Beehive_store.Store.dead_letters}); the platform decides which
    repair a damaged bee gets. *)

val scrub_now : t -> unit
(** Runs one full scrub pass immediately (unbounded budget): re-verifies
    every durable bee's cold bytes and repairs damage found on live bees
    by rewriting their storage from in-memory committed state. What the
    background scrubber does incrementally, forced to completion —
    monitors call this before their final verdict so detection is not
    racing the tick budget. *)

val fsck_crashed_bees : t -> int -> (int * Beehive_store.Store.verdict) list
(** Runs {!Beehive_store.Store.fsck} over every crashed bee of a hive,
    truncating torn WAL tails in place, and returns the verdicts. The
    recovery-identity check runs this before computing the expected
    durable cut (a torn tail is not recoverable data; a [Corrupt] bee
    will not be revived from local bytes at all). Idempotent —
    {!restart_hive} re-runs fsck itself. *)

val storage_suspects : t -> (int * string) list
(** Bees currently carrying an unrepaired verification failure (detected
    by scrub or fsck, not yet repaired, quarantined or forgotten). The
    repair-convergence monitor requires this empty at end of run. *)

val broken_chains : t -> (int * string) list
(** Omniscient oracle (monitors only): re-derives every live durable
    bee's chain verdict from the actual frame bytes, {e ignoring} an
    injected [Checksums_off]. A bee listed here but
    absent from {!storage_suspects} is silent corruption — the
    no-silent-corruption monitor's definition of failure. *)

val restart_hive : t -> int -> unit
(** Brings a failed hive back. With durability on, every bee that crashed
    on it is fsck-gated and revived in place from snapshot+WAL replay
    (byte-identical to its last group-committed state, torn tails
    truncated to the crash-consistent prefix); a bee whose committed
    prefix fails verification is re-seeded from a replication peer when
    one exists and quarantined ({!Beehive_store.Store.quarantine})
    otherwise.
    Without durability only new local bees can form there again. *)

val find_owner : t -> app:string -> Cell.t -> int option

val read : t -> app:string -> dict:string -> key:string -> Value.t option
(** The committed value of cell [(dict, key)] of [app]: what its one
    owner ({!find_owner}) holds, read in place. [None] when no bee owns
    the cell or the owner holds no value for it. Pending writes of a
    running transaction are not seen. *)

val read_dict : t -> app:string -> dict:string -> (string * Value.t) list
(** The committed keys and values of [dict] across every bee of [app]
    that owns a cell of it ({!Registry.owners_of_dict}), in key order:
    the whole dictionary, wherever its keys are placed. *)

val iter_windows : t -> hive:int -> (bee:int -> app:string -> Stats.window -> unit) -> unit
(** Takes ({!Stats.take_window}) the stats window of every live bee on a
    hive, in ascending bee id order — what a per-hive instrumentation
    collector gathers. An idle bee costs no allocation. *)

(** {2 Placement control} *)

val migrate_bee : t -> bee:int -> to_hive:int -> reason:string -> bool
(** Live-migrates a bee: stop, buffer, move cells (charged on the control
    channel), recreate, drain (Section 3, "Migration of Bees"). Returns
    [false] if the bee is unknown/dead/local, belongs to a [pinned] app
    ({!App.create}), is already there, holds anything ({!Bee.hold}: a
    move is admitted or in flight, a merge waits, or its hive is fenced),
    or the destination fails {!Route_plan.has_room}: it is not
    {!placeable}, or the bee's cells, with those it owns and those
    already in flight toward it, would take it over [hive_capacity].
    Admission takes the bee's [Migrating] hold and reserves its cells on
    the destination; a busy bee's move starts when its handler
    completes. *)

val least_loaded_hive : t -> exclude:int -> cells:int -> int option
(** {!Route_plan.least_loaded} under this platform's [hive_capacity]: the
    rule that also places a new bee whose origin is not placeable. *)

type migration = {
  mig_at : Beehive_sim.Simtime.t;
  mig_bee : int;
  mig_app : string;
  mig_src : int;
  mig_dst : int;
  mig_bytes : int;
  mig_reason : string;
}

val migrations : t -> migration list
(** Completed migrations, oldest first. *)

(** {2 Replication}

    The platform has no built-in replication: a replication scheme
    (e.g. the Raft-backed {!Raft_replication}) installs one
    {!Dispatch.replicator}, which sees the commits of [replicated] apps
    and hands back the replica a failover recovers ({!fail_hive},
    {!evict_hive} and {!restart_hive}'s corrupt-storage repair). *)

val set_replicator : t -> Dispatch.replicator -> unit
(** Installs the replication scheme. Without one, no bee fails over. One
    per platform: a second call raises [Invalid_argument]. *)

val on_emit :
  t ->
  (parent:Message.t option -> child:Message.t -> emitter:Message.source -> unit) ->
  unit
(** Observes every message creation: bee emissions carry the message
    being processed as [parent]; injected messages have none. [emitter]
    is [child.src], the one record of the message's origin; the label
    stays because existing hooks name it ([~emitter:_]). Drives {!Trace}.
    For emits made inside a handler the hook fires at commit time — an
    aborted handler's buffered emits are never observed, because they
    never happened. *)

(** {2 Transactional outbox / quarantine introspection} *)

val scrub_budget_bytes : int
(** Byte budget of each background integrity-scrub slice (every 5 ms of
    simulated time the scrubber re-verifies up to this many cold
    WAL/snapshot bytes, resuming round-robin where the last slice
    stopped). Damage found on a live bee is repaired on the spot by
    rewriting its storage from the in-memory committed state; damage on a
    crashed bee is recorded for {!restart_hive}'s fsck gate. *)

val outbox_unacked_total : t -> int
(** Outbox entries awaiting full acknowledgement, cluster-wide (both
    durable-and-replaying and still riding an open group-commit batch):
    the store's outbox rows ({!Beehive_store.Store.outbox_total}); 0
    without a store. *)

val handler_faults : t -> int
(** Exceptions contained instead of unwinding the engine: aborted [rcv]
    attempts (one per retry) and faults at the dispatch boundaries (map
    functions, cost estimators, timer tick generators, endpoint
    callbacks). *)

val total_quarantined : t -> int

val quarantined_messages : t -> bee:int -> (Message.t * string) list
(** A bee's quarantined messages, oldest first, each with the exception
    that killed its last attempt. Quarantined messages are consumed:
    their inbox mark is written and acked, so senders stop replaying
    them, and the engine keeps running. Kept although only tests read
    it: it is the one view of what a quarantine holds and why, which
    {!total_quarantined} and {!gauges} only count. *)

(** {2 Failures}

    Two distinct failure modes, plus the detector-facing membership
    operations built from them:

    - a {e crash} ({!crash_hive}) is a process death: in-flight work is
      void, un-fsynced batches are lost, and only {!restart_hive} brings
      the hive back;
    - an {e eviction} ({!evict_hive}) is a membership decision about a
      hive whose process may still be running (a confirmed suspicion by
      the failure detector): replicated bees fail over with an
      incarnation bump that voids any stale claim by the old instance,
      while unrecoverable bees are fenced in place — paused with state
      and mailbox intact — so a false positive loses nothing when the
      hive {!rejoin_hive}s. *)

val fail_hive : t -> int -> unit
(** Kills a hive and immediately runs recovery ({!crash_hive} followed by
    {!failover_hive}). Bees of replicated apps fail over to the next
    placeable hive with the replica the {!Dispatch.replicator} returns;
    durable bees stay crashed in place awaiting {!restart_hive}; other
    bees (and their cells) are lost. *)

val crash_hive : t -> int -> unit
(** Process death only — no recovery. Pair with {!failover_hive} (what a
    failure detector does once the death is confirmed). Kept although
    only tests call it: it is the half of {!fail_hive} that leaves the
    detector's confirmation to come. *)

val failover_hive : t -> int -> unit
(** Recovers a dead hive's crashed bees (see {!fail_hive}). Idempotent. *)

val evict_hive : t -> int -> unit
(** Fences a possibly-alive hive out of membership (see above). *)

val rejoin_hive : t -> int -> unit
(** Brings a fenced (not crashed) hive back: its bees resume and drain
    everything the transport buffered toward them. No-op otherwise. *)

val hive_alive : t -> int -> bool
(** In membership: up, neither crashed nor fenced. *)

val hive_crashed : t -> int -> bool
(** Process dead (via {!fail_hive}/{!crash_hive}), not yet restarted. *)

val since_wipe : t -> int -> bool
(** [since_wipe t h]: the running event was scheduled after hive [h]
    last crashed ({!Hives.since_wipe}). The one test of what a crash
    erases: an event that stands for [h]'s memory (a delivery or ack
    queued there, a reply to a request [h] made) does nothing when this
    is false. A frame on the wire, a heartbeat or a Raft RPC keeps its
    event (DESIGN.md §12.4). *)

(** {2 Elastic membership}

    Runtime join / drain / decommission (the [Beehive_elastic] subsystem
    drives these). Hive ids are never reused: a decommissioned hive keeps
    its id, so per-hive indexing stays stable while {!n_hives} only
    grows. *)

val add_hive : t -> int
(** Joins a fresh hive: grows the fabric with healthy links, extends
    every per-hive table, fires [Added] ({!on_hive}), and returns the new
    hive's id. The hive starts alive, empty, and placeable. *)

val set_draining : t -> int -> bool -> unit
(** Marks (or unmarks) a hive as draining: it accepts no new cells —
    placement redirects to {!least_loaded_hive} — no inbound
    migrations, and is skipped as a failover target. Existing bees keep
    processing until evacuated. Turning the flag on fires [Draining]
    ({!on_hive}). *)

val hive_draining : t -> int -> bool

val hive_decommissioned : t -> int -> bool

val drain_complete : t -> int -> bool
(** True when the hive owns zero cells, hosts no live non-local bee, no
    migration is in flight toward it, and no transport message to or from
    it is undelivered ({!Beehive_net.Transport.in_flight}). *)

val inbound_transfers : t -> int -> int
(** Migrations currently in flight toward the hive. *)

val decommission_hive : t -> int -> bool
(** Retires a fully-drained hive: kills its local bees, tears down its
    transport links and endpoints, removes it from membership, and fires
    [Decommissioned] ({!on_hive}). Returns [false] without side effects
    if the drain is not complete; [true] if retired (idempotent). *)

val hive_state :
  t -> int -> [ `Alive | `Draining | `Fenced | `Crashed | `Decommissioned ]

val members : t -> int list
(** Hive ids still in the cluster (every state but decommissioned). *)

val member_count : t -> int

val placeable : t -> int -> bool
(** Alive and not draining: can host new cells and accept migrations. *)

type hive_event = Lifecycle.hive_event =
  | Crashed  (** {!crash_hive} (and so {!fail_hive}) killed the process *)
  | Restarted  (** {!restart_hive} brought a crashed or fenced hive back *)
  | Added  (** {!add_hive} joined the hive *)
  | Draining  (** {!set_draining} turned the draining flag on *)
  | Decommissioned  (** {!decommission_hive} retired the hive *)

val on_hive : t -> (int -> hive_event -> unit) -> unit
(** Subscribes to hive lifecycle events, e.g. to crash and restart
    co-located consensus nodes or hand a draining hive's Raft groups off.
    Each event fires once per transition, after the hive's state has
    changed and before the function that fired it returns; [Crashed] and
    [Restarted] fire before the hive's bees are crashed or revived.
    Subscribers run newest first. *)

(** {2 Counters} *)

val total_processed : t -> int
val total_lock_rpcs : t -> int
val total_bee_merges : t -> int

val total_dropped : t -> int
(** Messages discarded for any {!Router.drop_reason} (the per-reason
    breakdown is the [dropped.*] entries of {!gauges}) —
    delivery-conservation monitors read this. *)

val paused_bees : t -> int
(** Live bees that hold anything ({!Bee.hold}: migrating, merging or
    fenced). A converged healed cluster has none. *)

val gauges : t -> (string * int) list
(** Platform-wide gauges, sorted by name and computed on each call from
    the module that owns each counter: the per-reason [dropped.*]
    breakdown ({!Router}), the [transport.*] reliability counters
    ({!Beehive_net.Transport}), [outbox.*] and [quarantine.*]
    ({!Outbox}, plus {!handler_faults}), [integrity.*]
    ({!Beehive_store.Store.integrity_counters}) and the [membership.*]
    hive count and per-state breakdown ({!Hives}). Other owners keep their own lists:
    [Membership.gauges] in the elastic library, and the checker's
    [lin.*] values in [Runner]. *)

val message_latency_percentile : t -> float -> int option
(** Cluster-wide percentile (in microseconds) of the emission-to-handler
    delay over all messages processed so far. *)
