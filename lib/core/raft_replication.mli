(** Raft-backed state replication.

    The platform's replication scheme (it has none built in) — the
    "enforcing the foundations of our framework specially for
    fault-tolerance" direction the paper closes with (the production
    Beehive replicates hive state with Raft).

    One Raft group per hive, three members wide (the hive and its
    successors; fewer when the cluster is smaller). Every committed
    transaction of a [replicated] app is proposed, as a {!command} value,
    to the group anchored at the bee's hive at first commit;
    each group member applies it to its own replica of the bee: one
    {!Recovery.replica} of state, un-acked outbox entries (trimmed when
    the platform reports full acknowledgement) and inbox marks, kept
    whole in compaction snapshots. On hive failure the platform recovers
    a bee from the most caught-up live member's replica. All Raft
    traffic (elections, heartbeats,
    entries) is charged on the inter-hive control channels, so the cost
    of consensus is visible in the Figure-4 style measurements.

    Members compact their Raft logs every [compact_every] applied
    entries, snapshotting their replica tables. A member that lags past a
    leader's compaction point — or rejoins after {!Platform.restart_hive}
    — catches up from the leader's snapshot (InstallSnapshot), paying the
    snapshot's serialized size on the control channel instead of
    replaying the full log. Commands and snapshots are held by the logs
    alone, and one byte model sizes both: dict, key and value per write,
    16 + message size per outbox entry, 16 per inbox mark, over 32 bytes
    per command and 64 per snapshot. *)

type t

type command
(** One replicated commit: a transaction's {!Platform.commit_info} under a
    sequence number, unique per {!t}, with its modelled wire size. *)

val command_seq : command -> int
val command_bytes : command -> int

val command_crc : command -> string
(** ["c<seq>|<bytes>"]: what its Raft entry's CRC envelope covers. *)

val install : Platform.t -> ?compact_every:int -> unit -> t
(** Creates the groups, installs them as the platform's one
    {!Platform.replicator} (commits in, acks trim, replicas out), subscribes
    to its hive events ({!Platform.on_hive}), and starts all Raft nodes:
    a crashed hive's nodes crash and restart with it, a joined hive
    anchors a new group, and a draining or decommissioned hive is handed
    off — replaced in every group it belongs to by a live placeable hive
    outside the group, whose fresh node catches up from the leader
    (AppendEntries backoff or Install_snapshot). [compact_every]
    (default 64) is the applied-entry interval between log
    compactions. *)

val group_members : t -> hive:int -> int list
(** Member hives of the group anchored at [hive]. *)

val group_leader : t -> hive:int -> int option
(** The group's current leader hive, if elected. *)

val replicated_commands : t -> int
(** Write sets committed through consensus so far. *)

val replica_entries : t -> member:int -> bee:int -> (string * string * Value.t) list
(** A member hive's replica of a bee's state: what a failover onto that
    member would restore. *)

val snapshot_installs : t -> int
(** Times any member reset its replicas from a snapshot image (leader
    catch-up or post-restart recovery). *)

val verify_member_logs : t -> bool
(** Oracle: re-verifies every live entry of every member node's log
    across all groups (monitors/tests). *)

val member_snapshot_index : t -> hive:int -> member:int -> int
(** Raft snapshot index of [member]'s node in the group anchored at
    [hive] (0 = that node has never compacted or installed). *)

(** {2 Consensus observer hooks}

    Read-only views of a member's Raft node, for external invariant
    monitors (e.g. {!Beehive_check}'s log-prefix compatibility check). *)

val member_log_entries : t -> hive:int -> member:int -> command Beehive_raft.Raft.entry list
(** The member node's un-compacted log tail ([[]] if the member has no
    node in that group). *)

val member_commit_index : t -> hive:int -> member:int -> int
