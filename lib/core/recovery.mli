(** Bringing a crashed or evicted bee back: failover to another hive from
    a replica's state, or revival in place from its durable log.

    Like {!Migration}, this module never calls the platform: what a
    replication peer holds for the bee comes in as a {!replica}, and the
    caller resumes the bee's mailbox afterwards. *)

type replica = {
  entries : (string * string * Value.t) list;  (** the bee's state image *)
  emits : (int * Message.t) list;
      (** un-acked outbox entries, [(seq, message)], in [seq] order *)
  inbox : Beehive_store.Mark.t list;  (** inbox dedup marks, sorted *)
}
(** One bee's replica: its state plus the exactly-once bookkeeping that
    rode the same replicated commits. *)

val failover :
  reg:Registry.t ->
  hives:Hives.t ->
  store:(Value.t, Outbox.entry) Beehive_store.Store.t option ->
  Bee.t ->
  from_hive:int ->
  to_hive:int ->
  replica ->
  unit
(** Re-homes the bee on [to_hive] with the replica's state
    ({!Bee.fail_over}), and re-seeds its durable log and outbox there
    from the replica. *)

val revive :
  (Value.t, Outbox.entry) Beehive_store.Store.t ->
  hives:Hives.t ->
  hive:int ->
  Bee.t ->
  replica option ->
  bool
(** Revives a crashed bee on its restarted [hive]: fsck, then replay of
    snapshot and WAL tail. A log that fails verification is re-seeded
    from the replica when there is one, and quarantined otherwise (the
    bee goes dead). Returns whether the bee is active again. *)
