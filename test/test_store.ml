(* The durable storage engine: WAL group commit, snapshot compaction,
   crash/restart recovery through the platform, snapshot-based migration,
   and Raft install-snapshot catch-up. *)

open Helpers
module Store = Beehive_store.Store
module Mark = Beehive_store.Mark
module Crc32 = Beehive_sim.Crc32

(* The mark of [(sender, seq)], and back. *)
let mark (sender, seq) = Mark.make ~sender ~seq
let pair m = (Mark.sender m, Mark.seq m)
module Stats = Beehive_core.Stats
module Raft = Beehive_raft.Raft
module Raft_replication = Beehive_core.Raft_replication

(* Store-level tests use plain int values. *)
let size_of (d, k, w) =
  String.length d + String.length k + (match w with Some _ -> 8 | None -> 4)

(* Store-level outbox entries are [(seq, bytes)] pairs. *)
let int_store ?config engine = Store.create engine ?config ~size_of ~seq:fst ~bytes:snd ()

let sorted_entries store ~bee =
  List.sort compare (Store.recover store ~bee)

(* ------------------------------------------------------------------ *)
(* WAL group commit                                                     *)
(* ------------------------------------------------------------------ *)

(* [Store]'s modeled fsync latency. *)
let fsync_latency = Simtime.of_us 100

let test_group_commit_on_demand () =
  let engine = Engine.create () in
  let fsyncs = ref [] in
  let store =
    Store.create engine ~size_of ~seq:fst ~bytes:snd
      ~on_fsync:(fun ~hive:_ ~bytes:_ ~records ->
        fsyncs := (Simtime.to_us (Engine.now engine), records) :: !fsyncs)
      ()
  in
  let at_us us = Engine.run_until engine (Simtime.of_us us) in
  (* A lone append arms a commit that lands exactly one fsync latency
     later... *)
  at_us 1_000;
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "a", Some 1) ];
  at_us 1_099;
  Alcotest.(check (list (triple string string int))) "not durable before the fsync" []
    (Store.recover store ~bee:0);
  at_us 1_100;
  Alcotest.(check (list (triple string string int)))
    "durable one fsync latency after the append" [ ("d", "a", 1) ]
    (sorted_entries store ~bee:0);
  Alcotest.(check (list (pair int int))) "one fsync of one record" [ (1_100, 1) ] !fsyncs;
  (* ...and appends made while a commit is armed ride it: one fsync. *)
  fsyncs := [];
  at_us 2_000;
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "b", Some 2) ];
  at_us 2_040;
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "c", Some 3) ];
  Store.append store ~bee:1 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "d", Some 4) ];
  Alcotest.(check int) "pending" 2 (Store.pending_writes store ~bee:0);
  at_us 2_100;
  Alcotest.(check (list (triple string string int)))
    "bee 0 durable" [ ("d", "a", 1); ("d", "b", 2); ("d", "c", 3) ]
    (sorted_entries store ~bee:0);
  Alcotest.(check (list (triple string string int)))
    "bee 1 durable" [ ("d", "d", 4) ]
    (sorted_entries store ~bee:1);
  Alcotest.(check (list (pair int int))) "one fsync covered the three appends" [ (2_100, 3) ]
    !fsyncs;
  (* A store with nothing pending schedules nothing, so [Engine.run]
     returns once the last commit has landed. *)
  Store.append store ~bee:1 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "e", Some 5) ];
  Engine.run engine;
  Alcotest.(check int) "run returns at the last fsync" 2_200
    (Simtime.to_us (Engine.now engine));
  Alcotest.(check (pair int int)) "nothing pending" (0, 0)
    (Store.pending_writes store ~bee:0, Store.pending_writes store ~bee:1)

(* The WAL record's payload is what its CRC covers, so its bytes are
   pinned: sets and deletes, then outbox entries, then inbox marks. *)
let test_batch_payload_bytes () =
  let engine = Engine.create () in
  let store = int_store engine in
  Store.append store ~bee:3 ~hive:1
    ~outbox:[ (7, 120); (8, 64) ]
    ~inbox:[ mark (2, 41); mark (5, 9) ] ~consumed:Mark.none
    [ ("d", "a", Some 1); ("d", "b", None); ("route", "10.0.0.1", Some 2) ];
  Store.flush store;
  let wal_lines =
    String.split_on_char '\n' (Store.wal_image store)
    |> List.filter (fun l -> String.length l > 2 && String.sub l 0 2 = "W ")
  in
  Alcotest.(check (list string))
    "record frame"
    [
      "W lsn=1 at=0 len=57 crc=1877554456 \
       R1|d/a=10|d/b=x|route/10.0.0.1=21|o7:120|o8:64|i2:41|i5:9";
    ]
    wal_lines

(* A group commit stamps each record's lsn and commit time and moves it
   into the WAL, encoding no disk image, so what it allocates does not
   grow with the bytes the records list. *)
let test_commit_words_flat_in_key_size () =
  let flush_words key_len =
    let store =
      int_store ~config:{ Store.snapshot_threshold_bytes = max_int } (Engine.create ())
    in
    let key = String.make key_len 'k' in
    (* The first commit sizes the per-hive commit shares. *)
    Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", key, Some 0) ];
    Store.flush store;
    for i = 1 to 1_000 do
      Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", key, Some i) ]
    done;
    minor_words_of (fun () -> Store.flush store)
  in
  Alcotest.(check (float 0.)) "flush words with 300-byte keys as with 3-byte keys"
    (flush_words 3) (flush_words 300)

(* Pending records are the WAL's own records: the debug hooks clear
   their outbox entries and inbox marks in place, a crash drops one
   hive's, and the survivors commit oldest first under consecutive lsns,
   byte for byte as pinned below. *)
let test_pending_record_lifecycle () =
  let engine = Engine.create () in
  let store = int_store engine in
  let append ~hive ~outbox ~inbox writes =
    Store.append store ~bee:0 ~hive ~outbox ~inbox:(List.map mark inbox) ~consumed:Mark.none writes
  in
  append ~hive:0 ~outbox:[ (1, 10) ] ~inbox:[ (5, 1) ] [ ("d", "a", Some 1) ];
  append ~hive:1 ~outbox:[ (2, 20) ] ~inbox:[ (6, 1) ] [ ("d", "b", Some 2) ];
  Store.wipe_inbox store ~bee:0;
  Store.drop_outbox store ~bee:0;
  Alcotest.(check bool) "wiped mark forgotten" true
    (Store.inbox_mark store ~bee:0 (mark (5, 1)) = Store.Unseen);
  append ~hive:0 ~outbox:[ (3, 30) ] ~inbox:[ (5, 2) ] [ ("d", "c", Some 3) ];
  append ~hive:1 ~outbox:[ (4, 40) ] ~inbox:[ (6, 2) ] [ ("d", "e", Some 4) ];
  append ~hive:0 ~outbox:[] ~inbox:[ (7, 1) ] [];
  Alcotest.(check bool) "later mark pending" true
    (Store.inbox_mark store ~bee:0 (mark (6, 2)) = Store.Pending);
  Store.drop_pending store ~hive:1;
  Alcotest.(check int) "hive 0's records pending" 3 (Store.pending_writes store ~bee:0);
  Store.flush store;
  let wal_lines =
    String.split_on_char '\n' (Store.wal_image store)
    |> List.filter (fun l -> String.length l > 2 && String.sub l 0 2 = "W ")
  in
  Alcotest.(check (list string))
    "survivors commit oldest first from lsn 1"
    [
      "W lsn=1 at=0 len=9 crc=1197191360 R1|d/a=10";
      "W lsn=2 at=0 len=20 crc=1662106638 R2|d/c=10|o3:30|i5:2";
      "W lsn=3 at=0 len=7 crc=2224540402 R3|i7:1";
    ]
    wal_lines;
  Alcotest.(check (list (pair int int))) "surviving inbox marks" [ (5, 2); (7, 1) ]
    (List.map pair (Store.inbox_marks store ~bee:0));
  Alcotest.(check (list (pair int int))) "surviving outbox entries" [ (3, 30) ]
    (Store.outbox_unacked store ~bee:0);
  Alcotest.(check (list (triple string string int)))
    "surviving writes" [ ("d", "a", 1); ("d", "c", 3) ] (sorted_entries store ~bee:0);
  (* The whole image: lsn bookkeeping, snapshot and WAL frames, and the
     durable outbox and inbox. *)
  Alcotest.(check string) "image unchanged"
    (String.concat "\n"
       [
         "bee=0 next_lsn=4 snap_lsn=0 next_out_seq=5";
         "S len=2 crc=4137036996 S0";
         "W lsn=1 at=0 len=9 crc=1197191360 R1|d/a=10";
         "W lsn=2 at=0 len=20 crc=1662106638 R2|d/c=10|o3:30|i5:2";
         "W lsn=3 at=0 len=7 crc=2224540402 R3|i7:1";
         "O 3:30";
         "I 5:2";
         "I 7:1";
         "";
       ])
    (Store.wal_image store)

(* The store is the one record of the acks a receiver owes: each
   committed record's consumed mark is handed over once, as
   [(receiver bee, mark)], in the report of the hive that
   appended it. Carried marks (a merge's, a fail over's), a negative
   sender's mark, a record [drop_pending] dropped and marks [wipe_inbox]
   cleared are never handed over; [flush_bee] hands over only its own
   bee's marks. A consumed mark is journaled exactly as a carried one. *)
let test_consumed_marks_handed_over () =
  let engine = Engine.create () in
  let reports = ref [] in
  let store =
    Store.create engine ~size_of ~seq:fst ~bytes:snd
      ~on_durable:(fun ~hive ~acks _ ->
        let ack i =
          let m = Mark.Acks.mark acks i in
          (Mark.Acks.receiver acks i, Mark.sender m, Mark.seq m)
        in
        reports := (hive, List.init (Mark.Acks.length acks) ack) :: !reports)
      ()
  in
  let handed () =
    let r = List.rev !reports in
    reports := [];
    r
  in
  let reports_are what expected =
    Alcotest.(check (list (pair int (list (triple int int int))))) what expected (handed ())
  in
  let mark_is what expected ~bee m =
    Alcotest.(check bool) what true (Store.inbox_mark store ~bee (mark m) = expected)
  in
  let append ~bee ~hive ?consumed inbox =
    let consumed = Option.fold ~none:Mark.none ~some:mark consumed in
    Store.append store ~bee ~hive ~outbox:[] ~inbox:(List.map mark inbox) ~consumed
      [ ("d", "k", Some bee) ]
  in
  append ~bee:1 ~hive:0 ~consumed:(7, 1) [];
  append ~bee:2 ~hive:1 ~consumed:(7, 2) [];
  append ~bee:1 ~hive:2 ~consumed:(8, 1) [];
  append ~bee:1 ~hive:0 ~consumed:(8, 2) [];
  append ~bee:3 ~hive:1 [ (7, 3); (8, 3) ];
  append ~bee:3 ~hive:1 ~consumed:(-1, 5) [];
  mark_is "consumed, not yet durable" Store.Pending ~bee:1 (7, 1);
  mark_is "carried, not yet durable" Store.Pending ~bee:3 (8, 3);
  mark_is "another bee's mark" Store.Unseen ~bee:2 (7, 1);
  reports_are "nothing before the commit" [];
  Store.flush store;
  reports_are "each consumed mark, in its append hive's report, oldest first"
    [ (0, [ (1, 7, 1); (1, 8, 2) ]); (1, [ (2, 7, 2) ]); (2, [ (1, 8, 1) ]) ];
  mark_is "consumed and durable" Store.Durable ~bee:1 (7, 1);
  mark_is "carried and durable" Store.Durable ~bee:3 (7, 3);
  mark_is "a virtual sender's mark is journaled" Store.Durable ~bee:3 (-1, 5);
  append ~bee:1 ~hive:0 [];
  Store.flush store;
  reports_are "handed over once" [];
  (* A fail over re-seeds the log under the new owner from the replica's
     marks: carried too. *)
  Store.forget store ~bee:2;
  append ~bee:2 ~hive:0 [ (7, 2) ];
  Store.flush store;
  reports_are "a fail over's marks are not handed over" [];
  mark_is "but journaled" Store.Durable ~bee:2 (7, 2);
  (* A crash drops hive 0's pending record; the debug hook wipes bee 2's
     pending mark. *)
  append ~bee:1 ~hive:0 ~consumed:(9, 1) [];
  append ~bee:2 ~hive:1 ~consumed:(9, 2) [];
  Store.drop_pending store ~hive:0;
  Store.wipe_inbox store ~bee:2;
  Store.flush store;
  reports_are "dropped and wiped marks are not handed over" [];
  mark_is "dropped mark" Store.Unseen ~bee:1 (9, 1);
  mark_is "wiped mark" Store.Unseen ~bee:2 (9, 2);
  (* [flush_bee] commits one bee's records: only its marks are handed
     over, the other bee's follow at the next commit. *)
  append ~bee:1 ~hive:0 ~consumed:(10, 1) [];
  append ~bee:4 ~hive:0 ~consumed:(10, 4) [];
  Store.flush_bee store ~bee:4;
  reports_are "flush_bee: its own bee's mark" [ (0, [ (4, 10, 4) ]) ];
  mark_is "the other bee's mark still pending" Store.Pending ~bee:1 (10, 1);
  Engine.run engine;
  reports_are "the rest at the next commit" [ (0, [ (1, 10, 1) ]) ];
  (* The same record with its mark consumed or carried: one image. *)
  let image consumed =
    let s = int_store (Engine.create ()) in
    let inbox = if consumed then [] else [ mark (6, 9) ] in
    let consumed = if consumed then mark (6, 9) else Mark.none in
    Store.append s ~bee:0 ~hive:0 ~outbox:[ (1, 10) ] ~inbox ~consumed
      [ ("d", "a", Some 1) ];
    Store.flush s;
    (Store.wal_image s, Store.total_wal_bytes_written s)
  in
  Alcotest.(check (pair string int)) "journaled as a carried mark" (image false) (image true)

let test_crash_loses_unsynced_tail () =
  let engine = Engine.create () in
  let store = int_store engine in
  Store.append store ~bee:0 ~hive:2 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "a", Some 1) ];
  Store.flush store;
  (* A later write set that never reaches its fsync dies with the hive. *)
  Store.append store ~bee:0 ~hive:2 ~outbox:[] ~inbox:[] ~consumed:Mark.none
    [ ("d", "a", Some 99); ("d", "b", Some 2) ];
  Store.drop_pending store ~hive:2;
  Engine.run_until engine (Simtime.of_ms 5);
  Alcotest.(check (list (triple string string int)))
    "only the fsynced prefix survives" [ ("d", "a", 1) ]
    (sorted_entries store ~bee:0)

(* ------------------------------------------------------------------ *)
(* Replay determinism and snapshot equivalence                          *)
(* ------------------------------------------------------------------ *)

let workload store =
  for round = 0 to 4 do
    for k = 0 to 39 do
      Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none
        [ ("d", Printf.sprintf "k%02d" k, Some ((round * 100) + k)) ]
    done;
    (* Sprinkle deletes so recovery must honour tombstones. *)
    Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none
      [ ("d", Printf.sprintf "k%02d" round, None) ];
    Store.flush store
  done

let test_replay_determinism () =
  let s1 = int_store (Engine.create ()) in
  let s2 = int_store (Engine.create ()) in
  workload s1;
  workload s2;
  Alcotest.(check (list (triple string string int)))
    "identical histories recover identically"
    (sorted_entries s1 ~bee:0) (sorted_entries s2 ~bee:0);
  Alcotest.(check int) "same WAL byte count" (Store.total_wal_bytes_written s1)
    (Store.total_wal_bytes_written s2)

let test_snapshot_tail_equals_pure_replay () =
  let compacting =
    int_store
      ~config:{ Store.snapshot_threshold_bytes = 256 }
      (Engine.create ())
  in
  let pure =
    int_store
      ~config:{ Store.snapshot_threshold_bytes = max_int }
      (Engine.create ())
  in
  workload compacting;
  workload pure;
  Alcotest.(check (list (triple string string int)))
    "snapshot + tail == full replay"
    (sorted_entries pure ~bee:0)
    (sorted_entries compacting ~bee:0);
  Alcotest.(check bool) "compaction actually happened" true
    (Store.snapshot_count compacting ~bee:0 > 0);
  let rec_compact, _ = Store.recovery_cost compacting ~bee:0 in
  let rec_pure, _ = Store.recovery_cost pure ~bee:0 in
  Alcotest.(check bool)
    (Printf.sprintf "snapshot recovery replays fewer records (%d < %d)" rec_compact rec_pure)
    true (rec_compact < rec_pure)

let test_compaction_under_concurrent_commits () =
  let store =
    int_store
      ~config:{ Store.snapshot_threshold_bytes = 128 }
      (Engine.create ())
  in
  (* Three bees commit interleaved across many flush cycles; compactions
     of one log must not disturb the others. *)
  let model = Hashtbl.create 64 in
  for round = 0 to 19 do
    for bee = 0 to 2 do
      let key = Printf.sprintf "k%d" (round mod 4) in
      Store.append store ~bee ~hive:bee ~outbox:[] ~inbox:[] ~consumed:Mark.none
        [ ("d", key, Some ((bee * 1000) + round)) ];
      Hashtbl.replace model (bee, key) ((bee * 1000) + round)
    done;
    Store.flush store
  done;
  Alcotest.(check bool) "compactions ran while others committed" true
    (List.exists (fun bee -> Store.snapshot_count store ~bee > 0) [ 0; 1; 2 ]);
  for bee = 0 to 2 do
    let expected =
      Hashtbl.fold
        (fun (b, k) v acc -> if b = bee then ("d", k, v) :: acc else acc)
        model []
      |> List.sort compare
    in
    Alcotest.(check (list (triple string string int)))
      (Printf.sprintf "bee %d recovers its own state" bee)
      expected (sorted_entries store ~bee)
  done

(* ------------------------------------------------------------------ *)
(* Platform: crash/restart and migration                                *)
(* ------------------------------------------------------------------ *)

let test_platform_crash_restart_byte_identical () =
  let engine, platform = durable_platform () in
  for k = 0 to 11 do
    put platform ~from:(k mod 4) ~key:(Printf.sprintf "key%d" k) ~value:(k + 1)
  done;
  drain engine;
  Platform.flush_durability platform;
  let on_hive_1 =
    List.filter (fun v -> v.Platform.view_hive = 1) (Platform.live_bees platform)
  in
  Alcotest.(check bool) "some bees live on hive 1" true (on_hive_1 <> []);
  let before =
    List.map
      (fun v -> (v.Platform.view_id, Platform.bee_state_entries platform v.Platform.view_id))
      on_hive_1
  in
  Platform.fail_hive platform 1;
  List.iter
    (fun (id, _) ->
      let v = Option.get (Platform.bee_view platform id) in
      Alcotest.(check bool) "crashed, not alive" false v.Platform.view_alive)
    before;
  drain engine;
  Platform.restart_hive platform 1;
  drain engine;
  List.iter
    (fun (id, entries) ->
      let v = Option.get (Platform.bee_view platform id) in
      Alcotest.(check bool) "revived on its hive" true
        (v.Platform.view_alive && v.Platform.view_hive = 1);
      Alcotest.(check bool) "byte-identical state" true
        (Platform.bee_state_entries platform id = entries))
    before;
  (* The revived bees keep processing. *)
  let id, _ = List.hd before in
  let key =
    match Platform.bee_state_entries platform id with
    | (_, k, _) :: _ -> k
    | [] -> Alcotest.fail "revived bee has no state"
  in
  let prev = Option.get (store_value platform ~bee:id ~key) in
  put platform ~from:0 ~key ~value:5;
  drain engine;
  Alcotest.(check (option int)) "processes after restart" (Some (prev + 5))
    (store_value platform ~bee:id ~key)

let test_unsynced_commits_lost_on_crash () =
  let engine, platform = durable_platform () in
  put platform ~from:0 ~key:"a" ~value:7;
  drain engine;
  Platform.flush_durability platform;
  let bee = owner_exn platform ~app:"test.kv" "a" in
  let hive = (Option.get (Platform.bee_view platform bee)).Platform.view_hive in
  (* This commit is applied in memory, and the hive crashes inside its
     group-commit window: after the commit, before its fsync lands. *)
  put platform ~from:hive ~key:"a" ~value:100;
  let store = Option.get (Platform.store platform) in
  while Store.pending_writes store ~bee = 0 do
    Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_us 1))
  done;
  let committed_at = Engine.now engine in
  Alcotest.(check (option int)) "applied in memory" (Some 107) (store_value platform ~bee ~key:"a");
  Engine.run_until engine
    (Simtime.of_us (Simtime.to_us (Simtime.add committed_at fsync_latency) - 1));
  Alcotest.(check int) "still pending" 1 (Store.pending_writes store ~bee);
  Platform.fail_hive platform hive;
  drain engine;
  Platform.restart_hive platform hive;
  drain engine;
  Alcotest.(check (option int)) "recovers to last group commit" (Some 7)
    (store_value platform ~bee ~key:"a")

let test_crash_mid_migration_single_owner () =
  let engine, platform = durable_platform () in
  put platform ~from:0 ~key:"m" ~value:3;
  drain engine;
  Platform.flush_durability platform;
  let bee = owner_exn platform ~app:"test.kv" "m" in
  let src = (Option.get (Platform.bee_view platform bee)).Platform.view_hive in
  let dst = (src + 1) mod 4 in
  Alcotest.(check bool) "migration starts" true
    (Platform.migrate_bee platform ~bee ~to_hive:dst ~reason:"test");
  (* The destination dies while the snapshot package is on the wire. *)
  Platform.fail_hive platform dst;
  drain engine;
  let v = Option.get (Platform.bee_view platform bee) in
  Alcotest.(check bool) "bee resumed at the source" true
    (v.Platform.view_alive && v.Platform.view_hive = src);
  Alcotest.(check int) "still the one owner" bee (owner_exn platform ~app:"test.kv" "m");
  Alcotest.(check (option int)) "state intact" (Some 3)
    (store_value platform ~bee ~key:"m");
  put platform ~from:0 ~key:"m" ~value:4;
  drain engine;
  Alcotest.(check (option int)) "still processing" (Some 7)
    (store_value platform ~bee ~key:"m")

let test_migration_ships_package_and_wal_metrics () =
  let engine, platform =
    durable_platform
      ~config:{ Store.snapshot_threshold_bytes = 128 }
      ()
  in
  for i = 0 to 29 do
    put platform ~from:0 ~key:"w" ~value:i;
    if i mod 5 = 0 then drain engine
  done;
  drain engine;
  let bee = owner_exn platform ~app:"test.kv" "w" in
  Alcotest.(check bool) "overwrites compacted into snapshots" true
    (Store.snapshot_count (Option.get (Platform.store platform)) ~bee >= 1);
  let src = (Option.get (Platform.bee_view platform bee)).Platform.view_hive in
  let dst = (src + 1) mod 4 in
  Alcotest.(check bool) "migrates" true
    (Platform.migrate_bee platform ~bee ~to_hive:dst ~reason:"test");
  drain engine;
  let v = Option.get (Platform.bee_view platform bee) in
  Alcotest.(check int) "landed" dst v.Platform.view_hive;
  (match Platform.migrations platform with
  | [] -> Alcotest.fail "no migration recorded"
  | ms ->
    let m = List.nth ms (List.length ms - 1) in
    Alcotest.(check bool) "transfer cost is the snapshot package" true
      (m.Platform.mig_bytes > 0));
  Alcotest.(check (option int)) "state survived the move"
    (Some (List.init 30 Fun.id |> List.fold_left ( + ) 0))
    (store_value platform ~bee ~key:"w")

(* ------------------------------------------------------------------ *)
(* Raft install-snapshot                                                *)
(* ------------------------------------------------------------------ *)

let test_raft_install_snapshot_catches_up_lagging_node () =
  let engine = Engine.create () in
  let cluster = Cluster.create engine ~n:3 in
  let l = await_leader engine cluster in
  let f = if l = 0 then 1 else 0 in
  Cluster.crash cluster f;
  for i = 1 to 20 do
    (match Cluster.propose_anywhere cluster (Printf.sprintf "cmd%d" i) with
    | `Proposed _ -> ()
    | `No_leader -> Alcotest.fail "lost the leader");
    run_for engine 0.2
  done;
  run_for engine 1.0;
  let leader_node = Cluster.node cluster l in
  Alcotest.(check int) "leader applied everything" 20 (Raft.last_applied leader_node);
  (* Compact the leader's whole log: the crashed follower's entries are
     now only reachable through the snapshot. *)
  Raft.compact leader_node ~upto:(Raft.last_applied leader_node) ~data_size:3 ~data:"img";
  Alcotest.(check int) "leader log compacted" 20 (Raft.snapshot_index leader_node);
  Cluster.restart cluster f;
  run_for engine 3.0;
  let follower = Cluster.node cluster f in
  Alcotest.(check int) "follower installed the snapshot" 20
    (Raft.snapshot_index follower);
  Alcotest.(check bool) "follower caught up" true (Raft.last_applied follower >= 20);
  (* Replication continues past the snapshot for everyone. *)
  (match Cluster.propose_anywhere cluster "after-snap" with
  | `Proposed _ -> ()
  | `No_leader -> Alcotest.fail "no leader after snapshot");
  run_for engine 2.0;
  Alcotest.(check (list (pair int string))) "follower applies the tail"
    [ (21, "after-snap") ]
    (Cluster.applied cluster f)

let test_raft_replication_restart_recovers_via_snapshot () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:5) in
  Platform.register_app platform (replicated_kv_app ());
  let rep = Raft_replication.install platform ~compact_every:4 () in
  Platform.start platform;
  run_for engine 2.0;
  put platform ~from:1 ~key:"k" ~value:1;
  run_for engine 2.0;
  let bee = owner_exn platform ~app:"test.kv" "k" in
  (* The group is anchored at the bee's first-commit hive — where the bee
     lives, since it has not moved. *)
  let bee_hive = (Option.get (Platform.bee_view platform bee)).Platform.view_hive in
  let anchor = bee_hive in
  let members = Raft_replication.group_members rep ~hive:anchor in
  (* Crash a member that does not host the bee itself. *)
  let victim = List.find (fun m -> m <> bee_hive) members in
  Platform.fail_hive platform victim;
  (* Enough commits that every live member compacts past the victim's
     match index. *)
  for v = 2 to 13 do
    put platform ~from:bee_hive ~key:"k" ~value:v;
    run_for engine 0.5
  done;
  run_for engine 2.0;
  let installs_before = Raft_replication.snapshot_installs rep in
  Platform.restart_hive platform victim;
  run_for engine 5.0;
  Alcotest.(check bool) "snapshot shipped to the rejoined member" true
    (Raft_replication.snapshot_installs rep > installs_before);
  Alcotest.(check bool) "member's node holds a snapshot" true
    (Raft_replication.member_snapshot_index rep ~hive:anchor ~member:victim > 0);
  let total = List.init 13 (fun i -> i + 1) |> List.fold_left ( + ) 0 in
  (match Raft_replication.replica_entries rep ~member:victim ~bee with
  | [ ("store", "k", Value.V_int n) ] ->
    Alcotest.(check int) "replica caught up through the snapshot" total n
  | entries ->
    Alcotest.failf "victim replica wrong (%d entries)" (List.length entries))

(* --- Packed marks and the mark set -------------------------------- *)

(* Senders and seqs drawn near the ends of their ranges as often as from
   a small middle, so packing meets both limits and the set meets many
   marks that differ only in their sender. *)
let sender_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-1) 5);
        (1, return Mark.max_sender);
        (1, return (Mark.max_sender - 1));
      ])

let seq_gen =
  QCheck.Gen.(
    frequency [ (6, int_range 0 40); (1, return Mark.max_seq); (1, return (Mark.max_seq - 1)) ])

let prop_marks_pack_pairs =
  QCheck.Test.make ~name:"packed marks round-trip and sort as their pairs" ~count:2000
    QCheck.(
      make
        ~print:Print.(pair (pair int int) (pair int int))
        Gen.(pair (pair sender_gen seq_gen) (pair sender_gen seq_gen)))
    (fun (a, b) ->
      let ma = mark a and mb = mark b in
      pair ma = a
      && (ma :> int) >= 0
      && (not (Mark.is_none ma))
      && Mark.acked ma = (fst a >= 0)
      && Int.compare (Mark.compare ma mb) 0 = Int.compare (compare a b) 0
      && Mark.of_int (ma :> int) = ma)

let test_mark_range () =
  let rejects what f =
    match f () with
    | (_ : Mark.t) -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "sender -2" (fun () -> Mark.make ~sender:(-2) ~seq:0);
  rejects "sender past the limit" (fun () -> Mark.make ~sender:(Mark.max_sender + 1) ~seq:0);
  rejects "seq -1" (fun () -> Mark.make ~sender:0 ~seq:(-1));
  rejects "seq past the limit" (fun () -> Mark.make ~sender:0 ~seq:(Mark.max_seq + 1));
  rejects "a negative int" (fun () -> Mark.of_int (-2));
  Alcotest.(check (pair int int)) "the largest mark" (Mark.max_sender, Mark.max_seq)
    (pair (Mark.make ~sender:Mark.max_sender ~seq:Mark.max_seq));
  Alcotest.(check int) "packs to max_int" max_int
    (Mark.make ~sender:Mark.max_sender ~seq:Mark.max_seq :> int);
  Alcotest.(check int) "the virtual sender's first mark packs to 0" 0
    (Mark.make ~sender:(-1) ~seq:0 :> int);
  Alcotest.(check bool) "none is none" true (Mark.is_none (Mark.of_int (Mark.none :> int)));
  Alcotest.(check bool) "none is no member" false (Mark.Set.mem (Mark.Set.create ()) Mark.none);
  match Mark.Set.add (Mark.Set.create ()) Mark.none with
  | () -> Alcotest.fail "none added to a set"
  | exception Invalid_argument _ -> ()

type set_op = Add of (int * int) | Remove of (int * int) | Mem of (int * int) | Clear

let print_set_op = function
  | Add (s, q) -> Printf.sprintf "add %d/%d" s q
  | Remove (s, q) -> Printf.sprintf "remove %d/%d" s q
  | Mem (s, q) -> Printf.sprintf "mem %d/%d" s q
  | Clear -> "clear"

let set_op_gen =
  let open QCheck.Gen in
  let key = pair sender_gen seq_gen in
  frequency
    [
      (40, map (fun k -> Add k) key);
      (20, map (fun k -> Remove k) key);
      (10, map (fun k -> Mem k) key);
      (1, return Clear);
    ]

(* The mark set against the table it replaced: a [(sender, seq)]-keyed
   [Hashtbl]. After every operation each modelled mark must be found
   (a removal that failed to shift its probe run back strands the marks
   after the hole) and a fold must give the model's marks. Up to 300
   operations over about 400 keys grow the table to 512 slots. *)
let prop_mark_set_matches_hashtbl =
  QCheck.Test.make ~name:"mark set agrees with a Hashtbl model" ~count:500
    QCheck.(
      make ~print:Print.(list print_set_op) Gen.(list_size (int_range 0 300) set_op_gen))
    (fun ops ->
      let set = Mark.Set.create () and model : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
      let agree op =
        let fail what = QCheck.Test.fail_reportf "%s after %s" what (print_set_op op) in
        if Mark.Set.cardinal set <> Hashtbl.length model then fail "cardinal";
        Hashtbl.iter (fun k () -> if not (Mark.Set.mem set (mark k)) then fail "mem") model;
        let members = List.sort compare (Mark.Set.fold (fun m acc -> pair m :: acc) set []) in
        let modelled = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model []) in
        if members <> modelled then fail "fold"
      in
      List.iter
        (fun op ->
          (match op with
          | Add k ->
            Mark.Set.add set (mark k);
            Hashtbl.replace model k ()
          | Remove k ->
            Mark.Set.remove set (mark k);
            Hashtbl.remove model k
          | Mem k ->
            if Mark.Set.mem set (mark k) <> Hashtbl.mem model k then
              QCheck.Test.fail_reportf "mem %d/%d" (fst k) (snd k)
          | Clear ->
            Mark.Set.clear set;
            Hashtbl.reset model);
          agree op)
        ops;
      true)

(* The floored mark set against a [(sender, seq)]-keyed [Hashtbl]:
   three bee senders and the virtual one, seqs from a small range so
   that floors form, runs added in order, windows added shuffled,
   scattered adds that leave gaps, and removals that land under, on and
   above a floor. *)
type floor_op =
  | F_add of (int * int)
  | F_run of int * int * int  (* sender, first seq, length: in order *)
  | F_window of int * int * int list  (* sender, first seq, offsets: shuffled *)
  | F_remove of (int * int)
  | F_mem of (int * int)
  | F_clear

let print_floor_op = function
  | F_add (s, q) -> Printf.sprintf "add %d/%d" s q
  | F_run (s, q, n) -> Printf.sprintf "run %d/%d+%d" s q n
  | F_window (s, q, offs) ->
    Printf.sprintf "window %d/%d [%s]" s q (String.concat ";" (List.map string_of_int offs))
  | F_remove (s, q) -> Printf.sprintf "remove %d/%d" s q
  | F_mem (s, q) -> Printf.sprintf "mem %d/%d" s q
  | F_clear -> "clear"

let floor_op_gen =
  let open QCheck.Gen in
  let sender = int_range (-1) 2 and seq = int_range 0 30 in
  let key = pair sender seq in
  frequency
    [
      (20, map (fun k -> F_add k) key);
      (10, map3 (fun s q n -> F_run (s, q, n)) sender (int_range 1 12) (int_range 1 10));
      ( 6,
        map3
          (fun s q offs -> F_window (s, q, offs))
          sender (int_range 1 20)
          (shuffle_l [ 0; 1; 2; 3; 4; 5; 6; 7 ]) );
      (15, map (fun k -> F_remove k) key);
      (10, map (fun k -> F_mem k) key);
      (1, return F_clear);
    ]

let prop_floored_mark_set =
  QCheck.Test.make ~name:"floored mark set agrees with a Hashtbl model" ~count:1000
    QCheck.(
      make ~print:Print.(list print_floor_op) Gen.(list_size (int_range 0 120) floor_op_gen))
    (fun ops ->
      let set = Mark.Set.create () and model : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
      let add k =
        Mark.Set.add set (mark k);
        Hashtbl.replace model k ()
      in
      let agree op =
        let fail what = QCheck.Test.fail_reportf "%s after %s" what (print_floor_op op) in
        if Mark.Set.cardinal set <> Hashtbl.length model then fail "cardinal";
        for s = -1 to 2 do
          for q = 0 to 45 do
            if Mark.Set.mem set (mark (s, q)) <> Hashtbl.mem model (s, q) then
              fail (Printf.sprintf "mem %d/%d" s q)
          done
        done;
        let members = List.sort compare (Mark.Set.fold (fun m acc -> pair m :: acc) set []) in
        let modelled = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model []) in
        if members <> modelled then fail "fold"
      in
      List.iter
        (fun op ->
          (match op with
          | F_add k -> add k
          | F_run (s, q, n) ->
            for i = 0 to n - 1 do
              add (s, q + i)
            done
          | F_window (s, q, offs) -> List.iter (fun o -> add (s, q + o)) offs
          | F_remove k ->
            Mark.Set.remove set (mark k);
            Hashtbl.remove model k
          | F_mem k ->
            if Mark.Set.mem set (mark k) <> Hashtbl.mem model k then
              QCheck.Test.fail_reportf "mem %d/%d" (fst k) (snd k)
          | F_clear ->
            Mark.Set.clear set;
            Hashtbl.reset model);
          agree op)
        ops;
      true)

(* A sender's seqs 1..10,000 arriving out of order within 64-wide
   windows cost the set no growth: each window's seqs join the floor as
   the window fills, so the probe table never holds more than one
   window. The first window arrives in reverse, the worst order, and
   grows the tables to what any window needs; the rest, shuffled,
   allocate nothing. A set that kept every seq in its probe table would
   grow to 32,768 slots. *)
let test_floor_absorbs_shuffled_windows () =
  let n = 10_000 and width = 64 in
  let rng = Random.State.make [| 58 |] in
  let order = Array.init n (fun i -> i + 1) in
  for w = 1 to (n - 1) / width do
    let lo = w * width and hi = min n ((w + 1) * width) - 1 in
    for i = hi downto lo + 1 do
      let j = lo + Random.State.int rng (i - lo + 1) in
      let x = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- x
    done
  done;
  let marks = Array.map (fun seq -> Mark.make ~sender:3 ~seq) order in
  let set = Mark.Set.create () in
  for i = width - 1 downto 0 do
    Mark.Set.add set marks.(i)
  done;
  let words =
    minor_words_of (fun () ->
        for i = width to n - 1 do
          Mark.Set.add set marks.(i)
        done)
  in
  Alcotest.(check (float 0.)) "words of growth after the first window" 0. words;
  Alcotest.(check int) "every seq a member" n (Mark.Set.cardinal set);
  Alcotest.(check bool) "members" true
    (Array.for_all (Mark.Set.mem set) marks
    && not (Mark.Set.mem set (Mark.make ~sender:3 ~seq:(n + 1))))

type table_op = T_replace of int * int | T_remove of int | T_find of int | T_clear

let print_table_op = function
  | T_replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | T_remove k -> Printf.sprintf "remove %d" k
  | T_find k -> Printf.sprintf "find %d" k
  | T_clear -> "clear"

let table_op_gen =
  let open QCheck.Gen in
  let key = frequency [ (8, int_range 0 80); (1, int_range 0 max_int) ] in
  frequency
    [
      (40, map2 (fun k v -> T_replace (k, v)) key small_nat);
      (20, map (fun k -> T_remove k) key);
      (10, map (fun k -> T_find k) key);
      (1, return T_clear);
    ]

(* The int-keyed table the outbox rows live in, against a [Hashtbl]:
   after every operation each modelled key finds its value and a fold
   gives the model's bindings. *)
let prop_mark_table_matches_hashtbl =
  QCheck.Test.make ~name:"int table agrees with a Hashtbl model" ~count:500
    QCheck.(
      make ~print:Print.(list print_table_op) Gen.(list_size (int_range 0 300) table_op_gen))
    (fun ops ->
      let table = Mark.Table.create () and model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun op ->
          let fail what = QCheck.Test.fail_reportf "%s after %s" what (print_table_op op) in
          (match op with
          | T_replace (k, v) ->
            Mark.Table.replace table k v;
            Hashtbl.replace model k v
          | T_remove k ->
            Mark.Table.remove table k;
            Hashtbl.remove model k
          | T_find k ->
            let modelled = Option.value ~default:(-1) (Hashtbl.find_opt model k) in
            if Mark.Table.find_or table k (-1) <> modelled then fail "find_or";
            let found = match Mark.Table.find table k with _ -> true | exception Not_found -> false in
            if found <> Hashtbl.mem model k then fail "find"
          | T_clear ->
            Mark.Table.clear table;
            Hashtbl.reset model);
          if Mark.Table.length table <> Hashtbl.length model then fail "length";
          Hashtbl.iter
            (fun k v -> if Mark.Table.find table k <> v then fail (Printf.sprintf "find %d" k))
            model;
          let bindings t = List.sort compare (t (fun k v acc -> (k, v) :: acc)) in
          if
            bindings (fun f -> Mark.Table.fold f table [])
            <> bindings (fun f -> Hashtbl.fold f model [])
          then fail "fold")
        ops;
      true)

(* The store's outbox rows against a model of [(bee, seq)]-keyed
   [Hashtbl]s: pending rows ride their records, a commit makes them
   durable, an ack retires one, a crash drops a hive's pending records,
   and a torn newest record, which fsck truncates, takes its rows with
   it. *)
type row_op =
  | R_append of int * int  (* bee, rows *)
  | R_commit
  | R_ack of int * int  (* bee, seq *)
  | R_crash of int  (* hive *)
  | R_tear of int  (* bee *)

let print_row_op = function
  | R_append (b, n) -> Printf.sprintf "append %d x%d" b n
  | R_commit -> "commit"
  | R_ack (b, q) -> Printf.sprintf "ack %d/%d" b q
  | R_crash h -> Printf.sprintf "crash %d" h
  | R_tear b -> Printf.sprintf "tear %d" b

let row_op_gen =
  let open QCheck.Gen in
  let bee = int_range 0 3 in
  frequency
    [
      (30, map2 (fun b n -> R_append (b, n)) bee (int_range 0 3));
      (12, return R_commit);
      (25, map2 (fun b q -> R_ack (b, q)) bee (int_range 1 30));
      (4, map (fun h -> R_crash h) (int_range 0 1));
      (6, map (fun b -> R_tear b) bee);
    ]

let prop_outbox_rows_match_model =
  QCheck.Test.make ~name:"store outbox rows agree with a Hashtbl model" ~count:500
    QCheck.(make ~print:Print.(list print_row_op) Gen.(list_size (int_range 0 150) row_op_gen))
    (fun ops ->
      let store = int_store (Engine.create ()) in
      let hive_of bee = bee mod 2 in
      (* Durable un-acked rows by (bee, seq); each bee's pending records
         newest first, and the seqs of its durable records newest first. *)
      let durable : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
      let pending = Array.make 4 [] and committed = Array.make 4 [] in
      List.iter
        (fun op ->
          let fail what = QCheck.Test.fail_reportf "%s after %s" what (print_row_op op) in
          (match op with
          | R_append (bee, n) ->
            let first = Store.alloc_out_seqs store ~bee n in
            let rows = List.init n (fun i -> (first + i, 10 + first + i)) in
            Store.append store ~bee ~hive:(hive_of bee) ~outbox:rows ~inbox:[] ~consumed:Mark.none
              [ ("d", "k", Some first) ];
            pending.(bee) <- rows :: pending.(bee)
          | R_commit ->
            Store.flush store;
            Array.iteri
              (fun bee recs ->
                List.iter
                  (fun rows ->
                    List.iter (fun (q, b) -> Hashtbl.replace durable (bee, q) b) rows;
                    committed.(bee) <- List.map fst rows :: committed.(bee))
                  (List.rev recs);
                pending.(bee) <- [])
              pending
          | R_ack (bee, seq) ->
            Store.ack_outbox store ~bee ~seq;
            Hashtbl.remove durable (bee, seq)
          | R_crash h ->
            Store.drop_pending store ~hive:h;
            Array.iteri (fun bee _ -> if hive_of bee = h then pending.(bee) <- []) pending
          | R_tear bee -> (
            let torn = Store.tear_tail store ~bee in
            let verdict = Store.fsck store ~bee in
            match committed.(bee) with
            | seqs :: older ->
              if not torn then fail "nothing torn";
              if verdict <> Store.Truncated 1 then fail "not truncated";
              List.iter (fun q -> Hashtbl.remove durable (bee, q)) seqs;
              committed.(bee) <- older
            | [] -> if torn || verdict <> Store.Intact then fail "an empty log torn"));
          let total = ref (Hashtbl.length durable) in
          for bee = 0 to 3 do
            let modelled =
              Hashtbl.fold
                (fun (b, q) bytes acc -> if b = bee then (q, bytes) :: acc else acc)
                durable []
              |> List.sort compare
            in
            if Store.outbox_unacked store ~bee <> modelled then
              fail (Printf.sprintf "bee %d's rows" bee);
            List.iter
              (fun rows ->
                total := !total + List.length rows;
                List.iter
                  (fun ((q, _) as row) ->
                    if Store.outbox_entry store ~bee ~seq:q <> row then fail "pending entry")
                  rows)
              pending.(bee);
            List.iter
              (fun ((q, _) as row) ->
                if Store.outbox_entry store ~bee ~seq:q <> row then fail "durable entry")
              modelled
          done;
          if Store.outbox_total store <> !total then fail "total")
        ops;
      true)

(* A durable emit costs nothing past its record once the bee's row table
   and the hand-over buffers have grown: committing 900 records with one
   outbox row each allocates what committing them with none does, and
   looking the rows up and acking them allocate 0 words. A commit takes
   the hive shares the one before the last reported, so two commits of
   900 rows grow both sets. *)
let test_outbox_row_words () =
  let handed = ref 0 in
  let store =
    Store.create (Engine.create ())
      ~config:{ Store.snapshot_threshold_bytes = max_int }
      ~size_of ~seq:fst ~bytes:snd
      ~on_durable:(fun ~hive:_ ~acks:_ rows -> handed := !handed + Store.Rows.length rows)
      ()
  in
  let write = [ ("d", "k", Some 0) ] in
  let rows first = Array.init 900 (fun i -> [ (first + i, 64) ]) in
  let commit rows =
    Array.iter
      (fun outbox ->
        Store.append store ~bee:0 ~hive:0 ~outbox ~inbox:[] ~consumed:Mark.none write)
      rows;
    Store.flush store
  in
  let ack first =
    for seq = first to first + 899 do
      Store.ack_outbox store ~bee:0 ~seq
    done
  in
  List.iter
    (fun first ->
      commit (rows first);
      ack first)
    [ 1; 901 ];
  let counted = rows 1_801 and none = Array.make 900 [] in
  let plain = minor_words_of (fun () -> commit none) in
  let emitting = minor_words_of (fun () -> commit counted) in
  Alcotest.(check (float 0.)) "durable rows at commit" 0. (emitting -. plain);
  Alcotest.(check int) "every row handed over" 2_700 !handed;
  let lookups () =
    for seq = 1_801 to 2_700 do
      ignore (Store.outbox_entry store ~bee:0 ~seq)
    done
  in
  Alcotest.(check (float 0.)) "outbox_entry" 0. (minor_words_of lookups);
  Alcotest.(check (float 0.)) "ack_outbox" 0. (minor_words_of (fun () -> ack 1_801));
  Alcotest.(check int) "all acked" 0 (Store.outbox_total store)

(* ------------------------------------------------------------------ *)
(* The linked WAL against a list model                                 *)
(* ------------------------------------------------------------------ *)

(* A log's pending and durable records are chains linked through the
   records themselves. The model below keeps them as plain lists, newest
   first, and rebuilds from them every byte [Store.wal_image] prints: the
   header line, the snapshot frame and each WAL frame, damaged ones
   included. Outbox rows and marks are left to the property above. *)

type wal_op =
  | W_append of int * int * (int * int option) list  (* bee, hive, (key, write) *)
  | W_commit
  | W_drop of int  (* hive *)
  | W_tear of int  (* bee *)
  | W_corrupt of int * int  (* bee, victim *)
  | W_fsck of int  (* bee *)
  | W_scrub

let print_wal_op = function
  | W_append (b, h, ws) ->
    Printf.sprintf "append %d@%d [%s]" b h
      (String.concat " "
         (List.map
            (fun (k, w) ->
              Printf.sprintf "k%d%s" k
                (match w with Some v -> "=" ^ string_of_int v | None -> " del"))
            ws))
  | W_commit -> "commit"
  | W_drop h -> Printf.sprintf "drop %d" h
  | W_tear b -> Printf.sprintf "tear %d" b
  | W_corrupt (b, v) -> Printf.sprintf "corrupt %d #%d" b v
  | W_fsck b -> Printf.sprintf "fsck %d" b
  | W_scrub -> "scrub"

let wal_op_gen =
  let open QCheck.Gen in
  let bee = int_range 0 3 in
  let writes = list_size (int_range 0 3) (pair (int_range 0 5) (opt (int_range 0 99))) in
  frequency
    [
      (30, map3 (fun b h ws -> W_append (b, h, ws)) bee (int_range 0 1) writes);
      (12, return W_commit);
      (4, map (fun h -> W_drop h) (int_range 0 1));
      (3, map (fun b -> W_tear b) bee);
      (3, map2 (fun b v -> W_corrupt (b, v)) bee (int_range 0 7));
      (5, map (fun b -> W_fsck b) bee);
      (3, return W_scrub);
    ]

(* A modelled record, with its damage newest first: [true] a bit flip,
   [false] a halving, replayed on the write-time payload. *)
type m_record = {
  m_hive : int;
  m_writes : (string * string * int option) list;
  mutable m_lsn : int;
  mutable m_damage : bool list;
}

type m_log = {
  mutable m_pending : m_record list;  (* newest first *)
  mutable m_wal : m_record list;  (* newest first *)
  mutable m_snapshot : (string * string * int) list;
  mutable m_snapshot_lsn : int;
  mutable m_next_lsn : int;
}

let wal_threshold = 150

let m_payload r =
  "R" ^ string_of_int r.m_lsn
  ^ String.concat ""
      (List.map
         (fun ((d, k, w) as wr) ->
           Printf.sprintf "|%s/%s=%s" d k
             (match w with Some _ -> string_of_int (size_of wr) | None -> "x"))
         r.m_writes)

let m_flip s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  end

(* The record's bytes as the disk now holds them. *)
let m_bytes r =
  List.fold_left
    (fun s flip -> if flip then m_flip s else String.sub s 0 (String.length s / 2))
    (m_payload r) (List.rev r.m_damage)

let m_state r =
  let bytes = m_bytes r and payload = m_payload r in
  if String.length bytes <> String.length payload then `Torn
  else if Crc32.string bytes <> Crc32.string payload then `Garbled
  else `Ok

let m_bad r = m_state r <> `Ok
let m_record_bytes r = 24 + 8 + List.fold_left (fun acc w -> acc + size_of w) 0 r.m_writes
let m_wal_bytes l = List.fold_left (fun acc r -> acc + m_record_bytes r) 0 l.m_wal

(* A log charges its snapshot from its first compaction on, which comes
   after a commit and so is taken at an lsn of 1 or more. *)
let m_snapshot_bytes l =
  if l.m_snapshot_lsn = 0 then 0
  else 32 + 8 + List.fold_left (fun acc (d, k, v) -> acc + size_of (d, k, Some v)) 0 l.m_snapshot

(* The scrub's report: the newest frame that fails verification. *)
let m_first_bad l =
  List.find_opt m_bad l.m_wal
  |> Option.map (fun r -> Printf.sprintf "wal record lsn %d failed verification" r.m_lsn)

let m_durable l =
  let view = Hashtbl.create 16 in
  List.iter (fun (d, k, v) -> Hashtbl.replace view (d, k) v) l.m_snapshot;
  List.iter
    (List.iter (fun (d, k, w) ->
         match w with Some v -> Hashtbl.replace view (d, k) v | None -> Hashtbl.remove view (d, k)))
    (List.rev_map (fun r -> r.m_writes) l.m_wal);
  Hashtbl.fold (fun (d, k) v acc -> (d, k, v) :: acc) view [] |> List.sort compare

(* Every byte [Store.wal_image] prints of the modelled logs: no commit
   moves the engine's clock, so every commit time is 0. *)
let m_image logs =
  let buf = Buffer.create 256 in
  let frame tag payload bytes =
    Buffer.add_string buf
      (Printf.sprintf "%s len=%d crc=%d %s\n" tag (String.length payload) (Crc32.string payload)
         bytes)
  in
  Array.iteri
    (fun bee -> function
      | None -> ()
      | Some l ->
        Buffer.add_string buf
          (Printf.sprintf "bee=%d next_lsn=%d snap_lsn=%d next_out_seq=1\n" bee l.m_next_lsn
             l.m_snapshot_lsn);
        let snap =
          "S" ^ string_of_int l.m_snapshot_lsn
          ^ String.concat ""
              (List.map
                 (fun (d, k, v) -> Printf.sprintf "|%s/%s=%d" d k (size_of (d, k, Some v)))
                 l.m_snapshot)
        in
        frame "S" snap snap;
        List.iter
          (fun r -> frame (Printf.sprintf "W lsn=%d at=0" r.m_lsn) (m_payload r) (m_bytes r))
          (List.rev l.m_wal))
    logs;
  Buffer.contents buf

(* The model's group commit of one log: lsns oldest first, then a
   compaction once the WAL outgrew the threshold, unless a frame fails
   verification. *)
let m_commit l =
  if l.m_pending <> [] then begin
    List.iter
      (fun r ->
        r.m_lsn <- l.m_next_lsn;
        l.m_next_lsn <- l.m_next_lsn + 1;
        l.m_wal <- r :: l.m_wal)
      (List.rev l.m_pending);
    l.m_pending <- [];
    if m_wal_bytes l > wal_threshold && not (List.exists m_bad l.m_wal) then begin
      l.m_snapshot <- m_durable l;
      l.m_snapshot_lsn <- l.m_next_lsn - 1;
      l.m_wal <- []
    end
  end

(* The expected [fsck] verdict, truncating the model's torn tail as the
   store does. *)
let m_fsck = function
  | None -> Store.Intact
  | Some l ->
    let rec split torn = function
      | r :: rest when m_state r = `Torn -> split (r :: torn) rest
      | rest -> (torn, rest)
    in
    let torn, prefix = split [] l.m_wal in
    if List.exists m_bad prefix then
      Store.Corrupt "committed wal record failed checksum verification"
    else if torn = [] then Store.Intact
    else begin
      l.m_wal <- prefix;
      Store.Truncated (List.length torn)
    end

let prop_linked_wal_matches_list_model =
  QCheck.Test.make ~name:"the linked WAL agrees with a list-model log" ~count:500
    QCheck.(make ~print:Print.(list print_wal_op) Gen.(list_size (int_range 0 120) wal_op_gen))
    (fun ops ->
      let store =
        int_store ~config:{ Store.snapshot_threshold_bytes = wal_threshold } (Engine.create ())
      in
      let logs : m_log option array = Array.make 4 None in
      let log bee =
        match logs.(bee) with
        | Some l -> l
        | None ->
          let l =
            { m_pending = []; m_wal = []; m_snapshot = []; m_snapshot_lsn = 0; m_next_lsn = 1 }
          in
          logs.(bee) <- Some l;
          l
      in
      List.iter
        (fun op ->
          let fail what = QCheck.Test.fail_reportf "%s after %s" what (print_wal_op op) in
          (match op with
          | W_append (bee, hive, ws) ->
            let writes = List.map (fun (k, w) -> ("d", "k" ^ string_of_int k, w)) ws in
            Store.append store ~bee ~hive ~outbox:[] ~inbox:[] ~consumed:Mark.none writes;
            if writes <> [] then begin
              let l = log bee in
              l.m_pending <- { m_hive = hive; m_writes = writes; m_lsn = 0; m_damage = [] } :: l.m_pending
            end
          | W_commit ->
            Store.flush store;
            Array.iter (Option.iter m_commit) logs
          | W_drop hive ->
            Store.drop_pending store ~hive;
            Array.iter
              (Option.iter (fun l ->
                   l.m_pending <- List.filter (fun r -> r.m_hive <> hive) l.m_pending))
              logs
          | W_tear bee -> (
            let torn = Store.tear_tail store ~bee in
            match logs.(bee) with
            | Some { m_wal = r :: _; _ } ->
              if not torn then fail "nothing torn";
              r.m_damage <- false :: r.m_damage
            | Some _ | None -> if torn then fail "an empty WAL torn")
          | W_corrupt (bee, victim) -> (
            let flipped = Store.corrupt_record store ~bee ~victim in
            match logs.(bee) with
            | Some { m_wal = _ :: _ as wal; _ } ->
              if not flipped then fail "nothing flipped";
              let r = List.nth wal (victim mod List.length wal) in
              r.m_damage <- true :: r.m_damage
            | Some _ | None -> if flipped then fail "an empty WAL flipped")
          | W_fsck bee -> if Store.fsck store ~bee <> m_fsck logs.(bee) then fail "fsck verdicts"
          | W_scrub ->
            let scanned, found = Store.scrub store ~budget_bytes:max_int in
            let m_scanned = ref 0 and m_found = ref [] in
            Array.iteri
              (fun bee -> function
                | None -> ()
                | Some l ->
                  m_scanned := !m_scanned + m_snapshot_bytes l + m_wal_bytes l;
                  Option.iter (fun d -> m_found := (bee, d) :: !m_found) (m_first_bad l))
              logs;
            if scanned <> !m_scanned then fail "scrub bytes";
            if found <> List.rev !m_found then fail "scrub findings");
          if Store.wal_image store <> m_image logs then fail "wal images";
          Array.iteri
            (fun bee -> function
              | None -> ()
              | Some l ->
                if Store.pending_writes store ~bee <> List.length l.m_pending then fail "pending";
                if sorted_entries store ~bee <> m_durable l then fail "recovered entries";
                let oldest_bad =
                  List.find_opt m_bad (List.rev l.m_wal)
                  |> Option.map (fun r ->
                         Printf.sprintf "wal record lsn %d bytes do not match their stored crc32"
                           r.m_lsn)
                in
                if Store.verify_chain store ~bee <> oldest_bad then fail "verify_chain";
                if
                  Store.recovery_cost store ~bee
                  <> (List.length l.m_wal, m_snapshot_bytes l + m_wal_bytes l)
                then fail "recovery cost")
            logs)
        ops;
      true)

(* A one-write durable append and the group commit that lands it
   allocate only the record, once the engine's queue and the commit's
   shares have grown: no list cell links it into the pending records or
   the WAL, and arming the commit schedules the store's one callback. *)
let record_words = 11. (* a WAL record: ten fields and a header *)

let test_durable_append_words () =
  let engine = Engine.create () in
  let store =
    int_store ~config:{ Store.snapshot_threshold_bytes = max_int } engine
  in
  let write = [ ("d", "k", Some 0) ] in
  let step () =
    Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none write;
    Engine.run engine
  in
  let steps () =
    for _ = 1 to 1_000 do
      step ()
    done
  in
  steps ();
  let words = minor_words_of steps /. 1_000. in
  Alcotest.(check (float 0.)) "words per append and commit" record_words words;
  Alcotest.(check int) "every record durable" 2_000 (fst (Store.recovery_cost store ~bee:0))

let suite =
  [
    ( "store",
      [
        Alcotest.test_case "group commit on first append" `Quick test_group_commit_on_demand;
        Alcotest.test_case "batch payload bytes are pinned" `Quick test_batch_payload_bytes;
        Alcotest.test_case "commit words are flat in the key size" `Quick
          test_commit_words_flat_in_key_size;
        Alcotest.test_case "consumed marks are handed over at commit" `Quick
          test_consumed_marks_handed_over;
        Alcotest.test_case "crash loses unsynced tail" `Quick test_crash_loses_unsynced_tail;
        Alcotest.test_case "pending records cleared, dropped, committed" `Quick
          test_pending_record_lifecycle;
        Alcotest.test_case "replay is deterministic" `Quick test_replay_determinism;
        Alcotest.test_case "snapshot + tail == pure replay" `Quick
          test_snapshot_tail_equals_pure_replay;
        Alcotest.test_case "compaction under concurrent commits" `Quick
          test_compaction_under_concurrent_commits;
        Alcotest.test_case "platform crash/restart is byte-identical" `Quick
          test_platform_crash_restart_byte_identical;
        Alcotest.test_case "unsynced commits lost on crash" `Quick
          test_unsynced_commits_lost_on_crash;
        Alcotest.test_case "crash mid-migration keeps one owner" `Quick
          test_crash_mid_migration_single_owner;
        Alcotest.test_case "migration ships snapshot package" `Quick
          test_migration_ships_package_and_wal_metrics;
        Alcotest.test_case "raft install-snapshot catch-up" `Quick
          test_raft_install_snapshot_catches_up_lagging_node;
        Alcotest.test_case "raft replication restart via snapshot" `Quick
          test_raft_replication_restart_recovers_via_snapshot;
        QCheck_alcotest.to_alcotest prop_marks_pack_pairs;
        Alcotest.test_case "marks reject what does not pack" `Quick test_mark_range;
        QCheck_alcotest.to_alcotest prop_mark_set_matches_hashtbl;
        QCheck_alcotest.to_alcotest prop_floored_mark_set;
        Alcotest.test_case "a floor absorbs shuffled windows" `Quick
          test_floor_absorbs_shuffled_windows;
        QCheck_alcotest.to_alcotest prop_mark_table_matches_hashtbl;
        QCheck_alcotest.to_alcotest prop_outbox_rows_match_model;
        Alcotest.test_case "durable rows allocate nothing" `Quick test_outbox_row_words;
        QCheck_alcotest.to_alcotest prop_linked_wal_matches_list_model;
        Alcotest.test_case "a one-write durable append and commit allocate only the record"
          `Quick test_durable_append_words;
      ] );
  ]
