(** Durable dictionary storage engine.

    Every non-local bee's committed transactions are journaled in a
    per-bee append-only write-ahead log with group commit on demand: the
    first record appended while no commit is armed arms one, which lands
    one fsync latency (100 µs) later and makes every record pending then
    durable together, paying one fsync per hive per commit. The store holds only that log, never
    a second in-memory copy of the state: the bee's own [State] is what
    handlers read, and the store is read back only on recovery, repair
    and migration. When a bee's WAL grows past a threshold its live cell
    set is serialized into a snapshot record and the log is truncated
    (compaction); recovery loads the snapshot and replays only the WAL
    tail. The same snapshot+tail package is what live migration ships
    between hives.

    The engine is value-polymorphic so it can live below [beehive_core]
    (the platform instantiates it at [Value.t], and its outbox entries at
    [Outbox.entry]); byte accounting is
    delegated to a [size_of] estimator and to an entry's [bytes], and durability costs surface
    through the [on_fsync] callback so the owning hive can be charged in
    Figure-4-style series. It is the one record of both halves of
    exactly-once delivery: the outbox rows of un-acked emits and the
    inbox marks of consumed deliveries, each handed to the platform in
    the [on_durable] report of the fsync that made it durable. The store
    also owns storage repair: the integrity counters, the local rewrite
    and peer re-seed of damaged logs, and the dead-letter record of
    quarantined ones. Everything is deterministic:
    logs are iterated in ascending bee order and all latency flows through
    the discrete-event engine. *)

type config = {
  snapshot_threshold_bytes : int;
      (** compact a bee's WAL into a snapshot once its durable log exceeds
          this many bytes *)
}

val default_config : config
(** A 64 KiB snapshot threshold. *)

type 'v write = string * string * 'v option
(** [(dict, key, Some v)] sets, [(dict, key, None)] deletes. *)

type ('v, 'e) t
(** A store of ['v] values whose outbox rows are ['e] entries. An entry
    is its own transactional-outbox row: the store reads its outbox seq
    and payload bytes, which the log records, through the [seq] and
    [bytes] given to {!create}, and nothing else of it. The store's
    outbox is the one record of a bee's un-acked emits: a row lives from
    the {!append} that commits it until {!ack_outbox}, or until its
    record or log goes (a crash before the fsync, a torn tail,
    {!forget}, a re-seed). *)

(** The outbox entries one fsync made durable, oldest first, in a buffer
    the store reuses once the [on_durable] report returns. *)
module Rows : sig
  type 'e t

  val length : 'e t -> int

  val get : 'e t -> int -> 'e
  (** [get r i] is the [i]th entry, [0 <= i < length r]. *)
end

val create :
  Beehive_sim.Engine.t ->
  ?config:config ->
  size_of:('v write -> int) ->
  seq:('e -> int) ->
  bytes:('e -> int) ->
  ?garble:('v -> 'v) ->
  ?verify:bool ->
  ?on_fsync:(hive:int -> bytes:int -> records:int -> unit) ->
  ?on_durable:(hive:int -> acks:Mark.Acks.t -> 'e Rows.t -> unit) ->
  unit ->
  ('v, 'e) t
(** Creates the store. It schedules no event until the first append.
    [size_of] estimates the serialized size of one write (dict + key +
    value); [seq] and [bytes] read an outbox entry's seq and payload
    bytes. [garble] is what a reader gets back from physically damaged
    bytes it failed to (or chose not to) verify — defaults to the
    identity, in which case damage is only visible to checksums.
    [~verify:false] injects the checksums-off bug: frames are still
    charged (byte accounting and event schedules are unchanged) but
    checksum verification is skipped everywhere, so garbled records read
    back as if they were sound. Torn tails are still detected — length
    framing needs no checksum.
    [on_fsync] fires once per hive per flush that made data durable;
    [on_durable] fires right after it with what that fsync made durable,
    when that is anything: the [(receiver bee, mark)] acks of the marks
    its records consumed (see {!append}), oldest first, and the outbox
    entries its records carried, oldest first (the commit walks bees in
    id order, then records by lsn, then rows by seq), each in a buffer
    the store reuses once the callback returns — the platform's cue to
    send the acks and hand the entries to transport. *)

(** {2 The write path} *)

val append :
  ('v, 'e) t ->
  bee:int ->
  hive:int ->
  outbox:'e list ->
  inbox:Mark.t list ->
  consumed:Mark.t ->
  'v write list ->
  unit
(** Appends one transaction's record to the bee's log: its write-set,
    the outbox rows of the emits it made, the inbox dedup marks it
    carries over from another log ([inbox], a merge's or a fail over's),
    and [consumed], the mark of the delivery it applied (any of them may
    be empty; [consumed] is empty as {!Mark.none}). The record is the one the WAL keeps: all
    of it becomes durable together when the next group commit stamps its
    lsn and commit time (the one already armed, or one this append arms to
    land one fsync latency later), or is lost together by
    {!drop_pending}: a crash can never keep a state delta without its
    emits, or vice versa. Nothing is appended when all are empty. The
    caller has already applied the writes to the bee's state; the store
    only journals them, so nothing reads them back before they are
    durable. Explicit outbox sequence numbers advance the bee's
    allocator past them.

    The store is the one record of the acks a receiver owes: when the
    record is committed, [on_durable] hands [consumed] over as
    [(bee, consumed)] to [hive]'s report. Carried marks are never
    handed over (they were acked under their first owner, or are
    re-acked from the durable inbox when the sender replays), and
    neither is the virtual sender's mark (it names no bee), one
    {!drop_pending} dropped or one {!wipe_inbox} cleared. *)

val alloc_out_seqs : ('v, 'e) t -> bee:int -> int -> int
(** [alloc_out_seqs t ~bee n] allocates the bee's next [n] outbox
    sequence numbers, consecutive, and returns the first (monotonic,
    never reused even after acks). *)

val flush : ('v, 'e) t -> unit
(** Forces a group commit of every pending record now (the armed commit
    does this one fsync latency after the first pending append). Runs
    compaction on any bee whose durable WAL exceeds the snapshot
    threshold. *)

val flush_bee : ('v, 'e) t -> bee:int -> unit
(** Group-commits just this bee's pending records (other logs keep
    theirs). Used when one bee's writes must be durable {e now} without
    forcing a cluster-wide flush — e.g. a merge making the absorbed
    loser entries durable under the winner before the loser's log is
    forgotten. *)

val drop_pending : ('v, 'e) t -> hive:int -> unit
(** Crash semantics: discards every record appended from [hive] that has
    not yet been group-committed. Durable records are unaffected. *)

val forget : ('v, 'e) t -> bee:int -> unit
(** Drops all storage for a bee (merged away or permanently dead). *)

(** {2 Recovery} *)

val recover : ('v, 'e) t -> bee:int -> (string * string * 'v) list
(** The bee's durable cell set: snapshot overlaid with the WAL tail, in
    deterministic (dict, key) order. Pending (un-fsynced) records are not
    part of recovery — exactly what a crash loses. Values read through a
    damaged frame come back garbled: with checksums on, run {!fsck} first
    (it truncates torn tails and fail-stops corrupt prefixes); with them
    off, this is the silent corruption a lying disk serves. *)

val recovery_cost : ('v, 'e) t -> bee:int -> int * int
(** [(records_replayed, bytes_read)] of a {!recover} call right now:
    snapshot bytes plus every tail record. The figure of merit that
    snapshot-based recovery improves over full log replay. *)

(** {2 Integrity: verification, scrub, repair} *)

type verdict =
  | Intact  (** every committed frame verified *)
  | Truncated of int
      (** this many torn tail records were dropped (crash-consistent
          prefix); the rest verified *)
  | Corrupt of string
      (** the committed prefix itself fails verification — the bee must
          be re-seeded from a peer or quarantined, never replayed *)

val fsck : ('v, 'e) t -> bee:int -> verdict
(** Verifies the bee's snapshot and WAL frames the way recovery reads
    them. A trailing run of torn records is truncated in place, unwinding
    the outbox entries and inbox marks that committed with them. A torn
    or garbled frame in the committed prefix (or snapshot) is [Corrupt]:
    the bee is marked suspect and nothing is mutated. With [~verify:false]
    only torn frames are detected. *)

val scrub : ('v, 'e) t -> budget_bytes:int -> int * (int * string) list
(** One background scrub slice: walks cold snapshot+WAL bytes in bee
    order from a persistent cursor until [budget_bytes] is exhausted,
    verifying every frame. Returns [(bytes_scanned, damaged)] where
    [damaged] lists the bees (and details) whose chain failed — each is
    also recorded as a suspect. Completing a full pass over every log
    bumps {!scrubs_completed} and rewinds the cursor. *)

val verify_chain : ('v, 'e) t -> bee:int -> string option
(** Oracle for monitors and tests: verifies the bee's whole checksum
    chain, even with [~verify:false]. [None] when sound,
    [Some detail] naming the first damaged frame otherwise. *)

val suspects : ('v, 'e) t -> (int * string) list
(** Bees whose committed prefix failed verification (by {!scrub} or
    {!fsck}) and have not yet been repaired, re-seeded or forgotten. *)

(** {3 Repair}

    Which repair applies is the caller's call: a live bee is rewritten
    from its own in-memory state, a crashed one is re-seeded from a
    replication peer, and one with neither is quarantined. *)

val rewrite : ('v, 'e) t -> bee:int -> entries:(string * string * 'v) list -> unit
(** Repairs a live bee in place: flushes it, then replaces snapshot+WAL
    with a freshly checksummed image of [entries] — the bee's committed
    in-memory state, which the caller reads from the bee itself — carrying
    the outbox, inbox and seq allocator over unchanged. Clears any suspect
    verdict and counts one {!local_rewrites}. *)

val reseed :
  ('v, 'e) t ->
  bee:int ->
  entries:(string * string * 'v) list ->
  outbox:'e list ->
  inbox:Mark.t list ->
  unit
(** Repairs a crashed bee from a replication peer: replaces its storage
    with a fresh, fully-checksummed snapshot of [entries] (the peer's
    state) and rewrites the durable outbox / inbox from the supplied
    lists; the outbox seq allocator carries over. Pending records are
    discarded. Clears any suspect verdict and counts one
    {!peer_repairs}. *)

val quarantine : ('v, 'e) t -> bee:int -> detail:string -> unit
(** Fail-stop for a bee whose committed prefix failed verification with
    no replica to re-seed from: drops its storage (as {!forget}) and
    records a dead letter. *)

val local_rewrites : ('v, 'e) t -> int
val peer_repairs : ('v, 'e) t -> int

val dead_letters : ('v, 'e) t -> (int * string) list
(** One record per {!quarantine}, oldest first: the bee and the
    verification failure that retired it. *)

val integrity_counters : ('v, 'e) t -> (string * int) list
(** Every detection and repair counter by name (the platform publishes
    them as [integrity.*] gauges): the ones above, plus [crc_failures]
    (distinct corrupt-bee detections, not re-checks of a known suspect)
    and [torn_truncations] (torn tail records dropped by {!fsck} across
    all bees); [quarantined_bees] counts the dead letters. *)

(** {3 Fault injection (the lying disk)}

    The store keeps no bytes for a sound frame: damage first builds the
    image the write would have put on disk, with its length and CRC,
    then changes its bytes, so the envelope keeps its write-time length
    and CRC. *)

val corrupt_record : ('v, 'e) t -> bee:int -> victim:int -> bool
(** Flips one bit in the [victim mod n]-th durable WAL record's payload.
    False if the bee has no durable records. *)

val tear_tail : ('v, 'e) t -> bee:int -> bool
(** Truncates the newest durable WAL record's payload to half its length
    — a torn write. False if the bee has no durable records. *)

val rot_snapshot : ('v, 'e) t -> bee:int -> bool
(** Flips one bit in the bee's snapshot payload. False if the bee has no
    (non-empty) snapshot. *)

(** {3 Integrity counters} *)

val records_verified : ('v, 'e) t -> int
val scrubs_completed : ('v, 'e) t -> int

(** {2 Transactional outbox / inbox} *)

val ack_outbox : ('v, 'e) t -> bee:int -> seq:int -> unit
(** Retires one durable outbox entry: every addressed receiver has
    durably applied it, so it will never be replayed again. No-op if the
    seq is unknown (late duplicate acks are harmless). The durable rows
    are a {!Mark.Table} by seq and the logs an array by bee id, so this
    and {!outbox_entry} hash nothing and allocate nothing. *)

val outbox_unacked : ('v, 'e) t -> bee:int -> 'e list
(** The bee's durable, un-acked outbox entries, ascending by seq —
    exactly what replay after a restart must re-send. Pending (un-fsynced)
    entries are excluded: they were never handed to transport. *)

val outbox_entry : ('v, 'e) t -> bee:int -> seq:int -> 'e
(** The entry the bee's outbox holds under [seq], durable or riding a
    pending record. Raises [Not_found] once it is acked, dropped or
    never existed; a lookup allocates nothing. *)

val outbox_total : ('v, 'e) t -> int
(** Un-acked outbox entries across every log, pending ones included. *)

type mark_state =
  | Unseen  (** the bee never consumed the message *)
  | Pending  (** consumed by a record not yet group-committed *)
  | Durable  (** consumed, and the mark is on disk *)

val inbox_mark : ('v, 'e) t -> bee:int -> Mark.t -> mark_state
(** What the bee's inbox holds of the mark, consumed or carried
    ([Unseen] for {!Mark.none}). The durable marks are one
    {!Mark.Set} under per-sender floors, so the lookup reads the
    sender's floor and probes at most one int table, and allocates
    nothing. Dedup suppresses any seen mark: a pending one is the
    receiver's committed in-memory view. Only a durable one may be
    re-acked, since an ack for a mark a crash can still drop would let
    the sender retire an entry the receiver forgets. *)

val inbox_marks : ('v, 'e) t -> bee:int -> Mark.t list
(** All marks, durable and pending, sorted — what a merge must carry
    over to the winning bee. *)

val wipe_inbox : ('v, 'e) t -> bee:int -> unit
(** Debug hook for [--inject-bug replay-dup]: forgets every inbox dedup
    mark, durable and pending, so replayed entries double-apply. *)

val drop_outbox : ('v, 'e) t -> bee:int -> unit
(** Debug hook for [--inject-bug lost-outbox]: forgets every un-acked
    outbox entry, durable and pending, so nothing is ever replayed. *)

(** {2 Migration} *)

val package_bytes : ('v, 'e) t -> bee:int -> int
(** Flushes and compacts the bee, then returns the size of the package a
    live migration ships (stop -> buffer -> transfer -> drain): snapshot,
    WAL tail, durable un-acked outbox and inbox marks, plus framing. The
    log itself stays keyed by the bee, so nothing is installed on the
    destination. *)

(** {2 Introspection (per bee)} *)

val pending_writes : ('v, 'e) t -> bee:int -> int
val snapshot_count : ('v, 'e) t -> bee:int -> int
(** Compactions taken so far for this bee. *)

(** {2 Totals} *)

val total_fsyncs : ('v, 'e) t -> int
val total_wal_bytes_written : ('v, 'e) t -> int
(** Cumulative bytes ever appended to WALs (not reduced by compaction). *)

val total_wal_records_written : ('v, 'e) t -> int
(** Cumulative framed records ever committed to WALs; with
    [frame_overhead_bytes] this gives the deterministic byte share the
    integrity envelopes add to the log (the bench gates it at 5%). *)

val frame_overhead_bytes : int
(** Bytes the length+CRC32 envelope adds to every WAL record and
    snapshot. *)

val wal_image : ('v, 'e) t -> string
(** Canonical byte-level image of the whole store: every tracked log in
    bee-id order — snapshot frame, WAL frames (payload, length, CRC,
    lsn, commit time) oldest-first, durable outbox/inbox sorted, lsn
    bookkeeping. Two stores with an equal image hold bit-identical
    durable state; the determinism tests hash this. *)

