module Store = Beehive_store.Store

let src = Logs.Src.create "beehive.recovery" ~doc:"Beehive bee recovery"

module Log = (val Logs.src_log src : Logs.LOG)

type replica = {
  entries : (string * string * Value.t) list;
  emits : (int * Message.t) list;
  inbox : (int * int) list;
}

let failover ~reg ~store ~outbox (b : Bee.t) ~from_hive ~to_hive r =
  (* Fail over onto the target hive from the recovered state. The
     incarnation was already bumped when the bee left its old life, so
     anything the old instance still claims is void. *)
  b.hive <- to_hive;
  b.state <- State.restore r.entries;
  Mailbox.clear b.mailbox;
  b.busy <- false;
  b.fenced <- false;
  b.pending_migration <- None;
  b.status <- `Active;
  Registry.set_hive reg ~bee:b.id ~hive:to_hive;
  (match store with
  | Some s ->
    (* Re-seed the durable log under the new owner so a later crash of
       the target hive also recovers. *)
    Store.forget s ~bee:b.id;
    Outbox.reseed outbox ~sender:b.id ~durable:false r.emits;
    Store.append s ~bee:b.id ~hive:to_hive ~outbox:(Outbox.rows r.emits) ~inbox:r.inbox
      (List.map (fun (d, k, v) -> (d, k, Some v)) r.entries)
  | None -> ());
  Log.info (fun m -> m "bee %d failed over from hive %d to %d" b.id from_hive to_hive)

(* A crashed bee whose committed prefix failed fsck, with a replication
   peer available: re-seed both disk and state from the peer — the same
   most-caught-up-member snapshot the Install_snapshot catch-up path
   ships. The replica's outbox entries and inbox marks re-seed the
   exactly-once state. *)
let reseed_from_peer s ~outbox (b : Bee.t) r detail =
  Outbox.reseed outbox ~sender:b.id ~durable:true r.emits;
  Store.reseed s ~bee:b.id ~entries:r.entries ~outbox:(Outbox.rows r.emits) ~inbox:r.inbox;
  b.state <- State.restore r.entries;
  Log.info (fun m -> m "bee %d: corrupt storage re-seeded from peer (%s)" b.id detail)

(* A crashed bee whose committed prefix failed fsck and nobody holds a
   replica: fail-stop. The garbage is never served — the log is dropped,
   the bee goes dead with a dead-letter record, and the registry keeps
   its cells so ownership stays unique (routing to it surfaces as
   dead-target drops, not silent wrong answers). *)
let quarantine s ~outbox (b : Bee.t) detail =
  Store.quarantine s ~bee:b.id ~detail;
  Outbox.drop_sender outbox b.id;
  b.state <- State.create ();
  Mailbox.clear b.mailbox;
  b.busy <- false;
  b.status <- `Dead;
  Log.info (fun m -> m "bee %d: corrupt storage quarantined (%s)" b.id detail)

let revive s ~outbox ~hive (b : Bee.t) replica =
  (* fsck before replay: truncate any torn tail, and refuse to serve a
     committed prefix that fails verification. *)
  match Store.fsck s ~bee:b.id with
  | Store.Intact | Store.Truncated _ ->
    (* Snapshot + WAL-tail replay, byte-identical to the last
       group-committed (and verified) state. *)
    b.state <- State.restore (Store.recover s ~bee:b.id);
    b.status <- `Active;
    Log.info (fun m -> m "bee %d recovered on restarted hive %d" b.id hive);
    true
  | Store.Corrupt detail -> (
    match replica with
    | Some r ->
      reseed_from_peer s ~outbox b r detail;
      b.status <- `Active;
      true
    | None ->
      quarantine s ~outbox b detail;
      false)
