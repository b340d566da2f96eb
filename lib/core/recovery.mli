(** Bringing a crashed or evicted bee back: failover to another hive from
    a replica's state, or revival in place from its durable log.

    Like {!Migration}, this module never calls the platform: the state a
    replication peer holds comes in as thunks, evaluated only when
    needed, and the caller resumes the bee's mailbox afterwards. *)

type survivor = unit -> ((int * Message.t) list * (int * int) list) option
(** The replicated outbox and inbox marks a peer holds for the bee. *)

val failover :
  reg:Registry.t ->
  store:Value.t Beehive_store.Store.t option ->
  outbox:Outbox.t ->
  survivor:survivor ->
  Bee.t ->
  from_hive:int ->
  to_hive:int ->
  (string * string * Value.t) list ->
  unit
(** Re-homes the bee on [to_hive] with the given state, active and with
    an empty mailbox, and re-seeds its durable log there. *)

val revive :
  Value.t Beehive_store.Store.t ->
  outbox:Outbox.t ->
  recoverable:(unit -> (string * string * Value.t) list option) ->
  survivor:survivor ->
  hive:int ->
  Bee.t ->
  bool
(** Revives a crashed bee on its restarted [hive]: fsck, then replay of
    snapshot and WAL tail. A log that fails verification is re-seeded
    from a replication peer when [recoverable] yields its state, and
    quarantined otherwise (the bee goes dead). Returns whether the bee is
    active again. *)
