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
    {!Cluster} for a ready-made in-simulator wiring. *)

type command = string
(** State-machine commands are opaque strings (callers encode). *)

type entry = {
  e_term : int;
  e_index : int;  (** 1-based *)
  e_command : command;
  e_crc : int;
      (** CRC32 envelope over (term, index, command), stamped at
          {!propose} time and carried through replication, snapshots
          excepted — the durable log's integrity frame *)
}

val verify_entry : entry -> bool
(** Whether the entry's bytes still match the checksum stamped at propose
    time. *)

type rpc =
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
      ae_entries : entry list;
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
      is_data : string;  (** opaque state-machine image (or a handle) *)
      is_data_size : int;  (** serialized size, for channel accounting *)
    }  (** Sent when a follower needs entries the leader has compacted
           away; acknowledged with a successful {!Append_reply} whose
           [ar_match] is [is_last_index]. *)

val rpc_size : rpc -> int
(** Wire-size estimate in bytes (for control-channel accounting). *)

type role =
  | Follower
  | Candidate
  | Leader

type t

val create :
  Beehive_sim.Engine.t ->
  id:int ->
  peers:int list ->
  install:(last_index:int -> last_term:int -> data:string -> unit) ->
  send:(dst:int -> rpc -> unit) ->
  apply:(entry -> unit) ->
  t
(** [peers] excludes [id]. [apply] is called exactly once per committed
    entry, in index order, while the node is up. [install] resets the
    state machine to a snapshot image: it fires when a leader ships one
    (the node lagged past the leader's compaction point) and again on
    {!restart} if the node holds a snapshot. Election timeouts are drawn
    uniformly from 150–300 ms; a leader heartbeats every 50 ms. *)

val start : t -> unit
(** Arms the election timer (all nodes start as followers). *)

val receive : t -> rpc -> unit
(** Delivers an inbound RPC. Ignored while crashed. *)

val propose : t -> command -> [ `Proposed of int | `Not_leader of int option ]
(** Submit a command. On the leader, returns the entry's log index;
    otherwise returns a hint of the current leader if known. *)

(** {2 Introspection} *)

val id : t -> int
val role : t -> role
val current_term : t -> int
val commit_index : t -> int
val last_applied : t -> int
val is_up : t -> bool
val log_entries : t -> entry list
(** The un-compacted log tail (tests only). *)

val verify_log : t -> bool
(** Verifies every live entry in the node's log (snapshotted prefix
    excluded). A false return means replicated state was corrupted in
    flight or at rest. *)

(** {2 Membership} *)

val set_peers : t -> int list -> unit
(** Replaces the peer set (the node's own id is filtered out). On a
    leader, replication cursors for newly added peers start at the log
    tail, so a fresh (empty-log) member is caught up through the normal
    backoff / {!rpc.Install_snapshot} path. Simplified single-step
    reconfiguration: the caller is responsible for changing one member at
    a time across the group. *)

(** {2 Log compaction} *)

val compact : t -> upto:int -> data_size:int -> data:string -> unit
(** Discards log entries up to [min upto last_applied], recording [data]
    as the snapshot image for that prefix. [data_size] is the wire size
    charged when the snapshot is shipped to a lagging follower. No-op if
    [upto] is not past the current snapshot. *)

val snapshot_index : t -> int
(** Last log index covered by the snapshot (0 = no snapshot). *)

(** {2 Failures} *)

val crash : t -> unit
(** Stops the node: timers cancelled, inbound RPCs dropped. Persistent
    state (term, vote, log, snapshot) survives, as on stable storage. *)

val restart : t -> unit
(** Recovers a crashed node as a follower; the [install] callback is
    re-invoked with the persisted snapshot (if any) and committed tail
    entries are re-applied to the state machine (simulating state-machine
    reconstruction from stable storage). *)
