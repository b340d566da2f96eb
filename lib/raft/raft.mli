(** Raft consensus over the discrete-event simulator.

    The paper closes with "we are enforcing the foundations of our
    framework specially for fault-tolerance"; the production Beehive
    prototype replicates hive state through Raft. This is a complete,
    deterministic Raft node — leader election with randomized timeouts,
    log replication, commit-index advancement restricted to current-term
    entries, and an at-most-once in-order apply channel — written against
    an abstract transport so tests can drop, delay, and partition
    messages freely.

    One {!t} is one node. The caller owns the transport: {!create} takes
    a [send] function, and delivers inbound RPCs with {!receive}. See
    {!Cluster} for a ready-made in-simulator wiring. A node holds the
    caller's commands (['c]) and snapshot images (['s]) as values. *)

type 'c entry = {
  e_term : int;
  e_index : int;  (** 1-based *)
  e_command : 'c;
  e_crc : int;
      (** CRC32 envelope over (term, index, the command's CRC string),
          stamped at {!propose} time and carried through replication,
          snapshots excepted — the durable log's integrity frame *)
}

type ('c, 's) rpc =
  | Request_vote of {
      rv_term : int;
      rv_candidate : int;
      rv_last_log_index : int;
      rv_last_log_term : int;
    }
  | Vote of { v_term : int; v_voter : int; v_granted : bool }
  | Append_entries of {
      ae_term : int;
      ae_leader : int;
      ae_prev_index : int;
      ae_prev_term : int;
      ae_entries : 'c entry list;
      ae_commit : int;
    }
  | Append_reply of {
      ar_term : int;
      ar_follower : int;
      ar_success : bool;
      ar_match : int;  (** highest replicated index on success *)
    }
  | Install_snapshot of {
      is_term : int;
      is_leader : int;
      is_last_index : int;  (** last log index covered by the snapshot *)
      is_last_term : int;  (** term of that index *)
      is_data : 's;  (** the caller's state-machine image *)
      is_data_size : int;  (** its serialized size, for channel accounting *)
    }  (** Sent when a follower needs entries the leader has compacted
           away; acknowledged with a successful {!Append_reply} whose
           [ar_match] is [is_last_index]. *)

type role =
  | Follower
  | Candidate
  | Leader

type ('c, 's) t

val create :
  Beehive_sim.Engine.t ->
  id:int ->
  peers:int list ->
  command_bytes:('c -> int) ->
  command_crc:('c -> string) ->
  install:(last_index:int -> last_term:int -> data:'s -> unit) ->
  send:(dst:int -> ('c, 's) rpc -> unit) ->
  apply:('c entry -> unit) ->
  ('c, 's) t
(** [command_bytes c] is a command's modelled wire size, which
    {!rpc_size} charges; [command_crc c] is the string its entry's CRC
    envelope covers. [peers] excludes [id]. [apply] is called exactly
    once per committed entry, in index order, while the node is up.
    [install] resets the
    state machine to a snapshot image: it fires when a leader ships one
    (the node lagged past the leader's compaction point) and again on
    {!restart} if the node holds a snapshot. Election timeouts are drawn
    uniformly from 150–300 ms; a leader heartbeats every 50 ms. *)

val rpc_size : ('c, 's) t -> ('c, 's) rpc -> int
(** Wire-size estimate in bytes (for control-channel accounting): an
    entry costs 16 bytes plus its [command_bytes]. *)

val verify_entry : ('c, 's) t -> 'c entry -> bool
(** Whether the entry's term, index and command still match the checksum
    stamped at propose time. *)

val start : ('c, 's) t -> unit
(** Arms the election timer (all nodes start as followers). *)

val receive : ('c, 's) t -> ('c, 's) rpc -> unit
(** Delivers an inbound RPC. Ignored while crashed. *)

val propose : ('c, 's) t -> 'c -> [ `Proposed of int | `Not_leader of int option ]
(** Submit a command. On the leader, returns the entry's log index;
    otherwise returns a hint of the current leader if known. *)

(** {2 Introspection} *)

val id : ('c, 's) t -> int
val role : ('c, 's) t -> role
val current_term : ('c, 's) t -> int
val commit_index : ('c, 's) t -> int
val last_applied : ('c, 's) t -> int
val is_up : ('c, 's) t -> bool
val log_entries : ('c, 's) t -> 'c entry list
(** The un-compacted log tail (tests only). *)

val verify_log : ('c, 's) t -> bool
(** Verifies every live entry in the node's log (snapshotted prefix
    excluded). A false return means replicated state was corrupted in
    flight or at rest. *)

(** {2 Membership} *)

val set_peers : ('c, 's) t -> int list -> unit
(** Replaces the peer set (the node's own id is filtered out). On a
    leader, replication cursors for newly added peers start at the log
    tail, so a fresh (empty-log) member is caught up through the normal
    backoff / {!rpc.Install_snapshot} path. Simplified single-step
    reconfiguration: the caller is responsible for changing one member at
    a time across the group. *)

(** {2 Log compaction} *)

val compact : ('c, 's) t -> upto:int -> data_size:int -> data:'s -> unit
(** Discards log entries up to [min upto last_applied], keeping [data]
    as the one snapshot image of that prefix. [data_size] is the wire
    size charged when the snapshot is shipped to a lagging follower.
    No-op if [upto] is not past the current snapshot. *)

val snapshot_index : ('c, 's) t -> int
(** Last log index covered by the snapshot (0 = no snapshot). *)

(** {2 Failures} *)

val crash : ('c, 's) t -> unit
(** Stops the node: timers cancelled, inbound RPCs dropped. Persistent
    state (term, vote, log, snapshot) survives, as on stable storage. *)

val restart : ('c, 's) t -> unit
(** Recovers a crashed node as a follower; the [install] callback is
    re-invoked with the persisted snapshot (if any) and committed tail
    entries are re-applied to the state machine (simulating state-machine
    reconstruction from stable storage). *)
