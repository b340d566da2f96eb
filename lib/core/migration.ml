module Simtime = Beehive_sim.Simtime
module Engine = Beehive_sim.Engine
module Channels = Beehive_net.Channels
module Store = Beehive_store.Store
module Mark = Beehive_store.Mark

let src = Logs.Src.create "beehive.migration" ~doc:"Beehive bee migration and merge"

module Log = (val Logs.src_log src : Logs.LOG)

(* How long a freshly-landed migration keeps serving reads from its
   pre-transfer snapshot when [stale_reads] is set. *)
let stale_read_window = Simtime.of_ms 3

let transfer engine ~reg ~locks ~hives ~store ~stale_reads ~transmit ~resume ~landed
    (b : Bee.t) hold =
  let dst =
    match hold with
    | Bee.Migrating { dst; _ } -> dst
    | Bee.Merging | Bee.Fenced -> invalid_arg "Migration.transfer: not a move"
  in
  (* The move ends without landing: the source still owns the bee (the
     registry never changed, so there is exactly one owner throughout),
     which resumes in place unless another hold keeps it stopped. *)
  let stay () = if Bee.release hives b hold then resume b in
  if not (Bee.holds b hold && Hives.alive hives dst) then stay ()
  else begin
    let src_hive = b.hive in
    (* The stale-read bug: remember what the bee's dictionaries looked
       like when the transfer left the source, to (wrongly) serve reads
       from after landing. *)
    let stale_snapshot =
      if stale_reads && not b.is_local then Some (State.snapshot b.state) else None
    in
    let bytes =
      (* With the storage engine, migration ships a compacted snapshot
         plus the WAL tail (forcing a group commit first) rather than an
         eager copy of the cell set. *)
      match store with
      | Some s when not b.is_local -> Store.package_bytes s ~bee:b.id
      | Some _ | None -> 64 + State.size_bytes b.state
    in
    (* Registry update: one lock-service round trip from each side. *)
    let l_rpc = Cell_locks.charge_rpc locks ~hive:src_hive in
    (* Once the hold is gone (a crash, failover, kill or fold ended the
       bee's life and settled the reservation), a late callback, such as
       a copy that was on the wire when the source crashed, does nothing. *)
    transmit ~src_ep:(Channels.Hive src_hive) ~dst_hive:dst ~bytes ~extra:l_rpc
      ~on_drop:stay
      (fun () ->
        if Bee.holds b hold then
          if not (Hives.alive hives dst && Hives.since_wipe hives engine dst) then
            (* Destination died mid-transfer, or crashed since it
               received the package, which was in its memory. *)
            stay ()
          else begin
            (match stale_snapshot with
            | Some snap ->
              b.stale_shadow <- Some snap;
              b.stale_until <- Simtime.add (Engine.now engine) stale_read_window
            | None -> ());
            Registry.set_hive reg ~bee:b.id ~hive:dst;
            let runnable = Bee.arrive hives b hold in
            landed ~src:src_hive ~bytes;
            if runnable then resume b
          end)
  end

let merge engine ~chans ~reg ~hives ~store ~resume
    ~(winner : Bee.t) ~(losers : Bee.t list) ~k =
  Bee.take hives winner Bee.Merging;
  let remaining = ref (List.length losers) in
  let finish_one () =
    decr remaining;
    if !remaining = 0 then begin
      (* All losers folded: registry ownership is consolidated, so the
         caller may now claim additional cells for the winner without
         conflicting with a busy loser whose fold-in was deferred. *)
      k ();
      if Bee.release hives winner Bee.Merging then resume winner
    end
  in
  let fold_in (l : Bee.t) () =
    if l.status = `Dead then finish_one ()
    else begin
    (* Move committed state, ownership and queued messages to the winner. *)
    let corrupt_loser = ref None in
    let all_entries =
      match store with
      | Some s when (not l.is_local) && Hives.crashed hives l.hive -> (
        (* The loser crashed with its hive: its memory is gone and its
           pending batches — state deltas and inbox marks alike — were
           dropped at crash. Folding the volatile snapshot here would
           resurrect writes whose dedup marks died with the batch, and a
           later outbox replay would apply them a second time. Fold the
           durable cut instead: exactly what restarting the hive would
           have revived. (A merely-fenced loser keeps its volatile state:
           the process is alive, only suspected.) *)
        match Store.fsck s ~bee:l.id with
        | Store.Intact | Store.Truncated _ -> Store.recover s ~bee:l.id
        | Store.Corrupt detail ->
          (* The durable cut fails verification: folding it would launder
             corrupt bytes into a healthy bee. Fold nothing, record the
             loss, and retire the log outright below. *)
          corrupt_loser := Some detail;
          [])
      | Some _ | None -> State.snapshot l.state
    in
    State.insert winner.state all_entries;
    (match store with
    | Some s when not winner.is_local ->
      (* The winner's log absorbs the loser's cell set as one write set.
         That write set must be durable *before* the loser's log is
         forgotten: the loser's copy was already fsynced, so dropping it
         while the winner's copy still sits in an un-committed batch
         would turn a crash of the winner's hive inside the group-commit
         window into silent loss of acknowledged writes. *)
      let moved_inbox =
        if !corrupt_loser = None then begin
          (* Staged-but-unfsynced loser emits become durable (and get
             dispatched) under the loser's log before it is retired. *)
          Store.flush_bee s ~bee:l.id;
          (* Dedup continuity: messages addressed to cells the winner now
             owns were possibly consumed by the loser; the winner's inbox
             must remember them or a replay double-applies. *)
          Store.inbox_marks s ~bee:l.id
        end
        else []
      in
      Store.append s ~bee:winner.id ~hive:winner.hive ~outbox:[] ~inbox:moved_inbox
        ~consumed:Mark.none
        (List.map (fun (d, k, v) -> (d, k, Some v)) all_entries);
      Store.flush_bee s ~bee:winner.id;
      (* The loser's durable un-acked outbox keeps its (sender, seq)
         identity — receivers dedup by it — so its log survives the merge
         until the last entry is acked; replay dispatches from the
         winner's hive via the forwarding pointer set below. *)
      (match !corrupt_loser with
      | Some detail ->
        (* Un-acked entries of a corrupt log are not replayable — their
           bytes can't be trusted. Drop the rows with the log. *)
        Store.quarantine s ~bee:l.id ~detail
      | None -> if Store.outbox_unacked s ~bee:l.id = [] then Store.forget s ~bee:l.id)
    | Some _ | None -> ());
    let bytes =
      64 + List.fold_left (fun acc (_, _, v) -> acc + Value.size v) 0 all_entries
    in
    if l.hive <> winner.hive then
      ignore
        (Channels.transfer chans ~src:(Channels.Hive l.hive)
           ~dst:(Channels.Hive winner.hive) ~bytes ~now:(Engine.now engine));
    Registry.reassign_all reg ~from_bee:l.id ~to_bee:winner.id;
    Mailbox.transfer l.mailbox winner.mailbox;
    (* Re-homed on the winner's hive, so outbox replay of the merged-away
       bee's surviving entries dispatches from (and fate-shares with) it. *)
    Bee.fold hives l ~into:winner;
    Log.debug (fun m ->
        m "merged bee %d into bee %d (%s)" l.id winner.id winner.app.App.name);
    finish_one ()
    end
  in
  List.iter
    (fun (l : Bee.t) ->
      Bee.take hives l Bee.Merging;
      if l.busy then l.on_idle <- fold_in l :: l.on_idle else fold_in l ())
    losers
