module Store = Beehive_store.Store
module Mark = Beehive_store.Mark

let src = Logs.Src.create "beehive.recovery" ~doc:"Beehive bee recovery"

module Log = (val Logs.src_log src : Logs.LOG)

type replica = {
  entries : (string * string * Value.t) list;
  emits : (int * Message.t) list;
  inbox : Mark.t list;
}

(* The replica's un-acked emits as fresh outbox rows of [b]. *)
let outbox_rows (b : Bee.t) r = List.map (fun (seq, m) -> Outbox.emit ~sender:b.id ~seq m) r.emits

let failover ~reg ~hives ~store (b : Bee.t) ~from_hive ~to_hive r =
  (* Fail over onto the target hive from the recovered state, in a new
     incarnation, so anything the old instance still claims is void. *)
  Bee.fail_over hives b ~hive:to_hive (State.restore r.entries);
  Registry.set_hive reg ~bee:b.id ~hive:to_hive;
  (match store with
  | Some s ->
    (* Re-seed the durable log under the new owner so a later crash of
       the target hive also recovers. *)
    Store.forget s ~bee:b.id;
    Store.append s ~bee:b.id ~hive:to_hive ~outbox:(outbox_rows b r) ~inbox:r.inbox
      ~consumed:Mark.none
      (List.map (fun (d, k, v) -> (d, k, Some v)) r.entries)
  | None -> ());
  Log.info (fun m -> m "bee %d failed over from hive %d to %d" b.id from_hive to_hive)

(* A crashed bee whose committed prefix failed fsck, with a replication
   peer available: re-seed both disk and state from the peer — the same
   most-caught-up-member snapshot the Install_snapshot catch-up path
   ships. The replica's outbox entries and inbox marks re-seed the
   exactly-once state. *)
let reseed_from_peer s (b : Bee.t) r detail =
  Store.reseed s ~bee:b.id ~entries:r.entries ~outbox:(outbox_rows b r) ~inbox:r.inbox;
  Bee.revive b (State.restore r.entries);
  Log.info (fun m -> m "bee %d: corrupt storage re-seeded from peer (%s)" b.id detail)

(* A crashed bee whose committed prefix failed fsck and nobody holds a
   replica: fail-stop. The garbage is never served — the log is dropped,
   the bee goes dead with a dead-letter record, and the registry keeps
   its cells so ownership stays unique (routing to it surfaces as
   dead-target drops, not silent wrong answers). *)
let quarantine s ~hives (b : Bee.t) detail =
  Store.quarantine s ~bee:b.id ~detail;
  b.state <- State.create ();
  Bee.kill hives b;
  Log.info (fun m -> m "bee %d: corrupt storage quarantined (%s)" b.id detail)

let revive s ~hives ~hive (b : Bee.t) replica =
  (* fsck before replay: truncate any torn tail, and refuse to serve a
     committed prefix that fails verification. *)
  match Store.fsck s ~bee:b.id with
  | Store.Intact | Store.Truncated _ ->
    (* Snapshot + WAL-tail replay, byte-identical to the last
       group-committed (and verified) state. *)
    Bee.revive b (State.restore (Store.recover s ~bee:b.id));
    Log.info (fun m -> m "bee %d recovered on restarted hive %d" b.id hive);
    true
  | Store.Corrupt detail -> (
    match replica with
    | Some r ->
      reseed_from_peer s b r detail;
      true
    | None ->
      quarantine s ~hives b detail;
      false)
