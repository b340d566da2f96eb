(* Consensus-backed state replication wired into the platform. *)

open Helpers
module Raft_replication = Beehive_core.Raft_replication
module Raft = Beehive_raft.Raft

let replicated_kv () = { (kv_app ()) with App.replicated = true }

let setup () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:5) in
  Platform.register_app platform (replicated_kv ());
  let rep = Raft_replication.install platform () in
  Platform.start platform;
  (engine, platform, rep)

let run_for engine secs =
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec secs))

let test_groups_formed () =
  let _, _, rep = setup () in
  Alcotest.(check (list int)) "members of group 3" [ 3; 4; 0 ]
    (Raft_replication.group_members rep ~hive:3)

let test_commits_replicate_through_raft () =
  let engine, platform, rep = setup () in
  run_for engine 2.0;  (* let leaders elect *)
  put platform ~from:1 ~key:"k" ~value:20;
  put platform ~from:1 ~key:"k" ~value:22;
  run_for engine 3.0;
  Alcotest.(check int) "both write sets committed" 2
    (Raft_replication.replicated_commands rep);
  let bee = owner_exn platform ~app:"test.kv" "k" in
  (* Every member of the bee's group holds the replica. *)
  List.iter
    (fun member ->
      let entries = Raft_replication.replica_entries rep ~member ~bee in
      match entries with
      | [ ("store", "k", Value.V_int 42) ] -> ()
      | _ -> Alcotest.failf "member %d replica wrong (%d entries)" member (List.length entries))
    (Raft_replication.group_members rep ~hive:1)

let test_failover_from_raft_replica () =
  let engine, platform, rep = setup () in
  run_for engine 2.0;
  put platform ~from:1 ~key:"k" ~value:21;
  put platform ~from:1 ~key:"k" ~value:21;
  run_for engine 3.0;
  let bee = owner_exn platform ~app:"test.kv" "k" in
  Platform.fail_hive platform 1;
  let view = Option.get (Platform.bee_view platform bee) in
  Alcotest.(check bool) "alive elsewhere" true
    (view.Platform.view_alive && view.Platform.view_hive <> 1);
  Alcotest.(check (option int)) "state recovered via consensus replicas" (Some 42)
    (store_value platform ~bee ~key:"k");
  (* The survivor keeps replicating on the remaining group majority. *)
  run_for engine 2.0;
  put platform ~from:0 ~key:"k" ~value:8;
  run_for engine 3.0;
  Alcotest.(check (option int)) "still serving" (Some 50) (store_value platform ~bee ~key:"k");
  Alcotest.(check bool) "later commits replicated too" true
    (Raft_replication.replicated_commands rep >= 3)

let test_raft_traffic_is_charged () =
  let engine, platform, _rep = setup () in
  run_for engine 3.0;
  let matrix = Channels.matrix (Platform.channels platform) in
  (* Heartbeats alone must show up between group members. *)
  Alcotest.(check bool) "consensus traffic on the control channel" true
    (Beehive_net.Traffic_matrix.off_diagonal_bytes matrix > 1000.0)

let test_group_leaders_elected () =
  let engine, _, rep = setup () in
  run_for engine 3.0;
  for h = 0 to 4 do
    match Raft_replication.group_leader rep ~hive:h with
    | Some l ->
      if not (List.mem l (Raft_replication.group_members rep ~hive:h)) then
        Alcotest.failf "group %d leader %d not a member" h l
    | None -> Alcotest.failf "group %d has no leader" h
  done

(* Two committed puts of key "k", as the first member of their group
   logs them, and a bare node built with the functions the layer builds
   its members with, to verify and size them. *)
let logged_puts () =
  let engine, platform, rep = setup () in
  run_for engine 2.0;
  put platform ~from:1 ~key:"k" ~value:20;
  put platform ~from:1 ~key:"k" ~value:22;
  run_for engine 3.0;
  let member = List.hd (Raft_replication.group_members rep ~hive:1) in
  let node =
    Raft.create engine ~id:0 ~peers:[] ~command_bytes:Raft_replication.command_bytes
      ~command_crc:Raft_replication.command_crc
      ~install:(fun ~last_index:_ ~last_term:_ ~data:() -> ())
      ~send:(fun ~dst:_ _ -> ())
      ~apply:ignore
  in
  (node, Raft_replication.member_log_entries rep ~hive:1 ~member)

let test_command_crc () =
  let node, log = logged_puts () in
  match log with
  | [ e1; e2 ] ->
    Alcotest.(check bool) "a replicated entry verifies" true (Raft.verify_entry node e1);
    Alcotest.(check string) "the CRC string" "c1|46"
      (Raft_replication.command_crc e1.Raft.e_command);
    (* Same term and index, another command, the old checksum. *)
    let forged = { e1 with Raft.e_command = e2.Raft.e_command } in
    Alcotest.(check bool) "a swapped command fails" false (Raft.verify_entry node forged)
  | _ -> Alcotest.failf "expected 2 entries, got %d" (List.length log)

(* A put's command is 32 bytes, plus "store", "k" and an 8-byte int. *)
let test_append_entries_size () =
  let node, log = logged_puts () in
  let bytes = 32 + String.length "store" + String.length "k" + Value.size (Value.V_int 42) in
  let rpc =
    Raft.Append_entries
      { ae_term = 1; ae_leader = 0; ae_prev_index = 0; ae_prev_term = 0; ae_entries = log;
        ae_commit = 0 }
  in
  Alcotest.(check int) "40 + per command 16 + its bytes" (40 + (2 * (16 + bytes)))
    (Raft.rpc_size node rpc)

(* The layer keeps what it replicates and no more: past the logs'
   compaction window, a stream of commits on one key holds its memory
   flat. Three hives and no store, one put per ms. *)
let test_retains_nothing_per_commit () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:3) in
  Platform.register_app platform (replicated_kv ());
  let rep = Raft_replication.install platform () in
  Platform.start platform;
  run_for engine 2.0;
  let puts n =
    for _ = 1 to n do
      put platform ~from:1 ~key:"k" ~value:1;
      run_for engine 0.001
    done;
    run_for engine 1.0;
    (Obj.reachable_words (Obj.repr rep), Raft_replication.replicated_commands rep)
  in
  let _, c0 = puts 10_000 in
  Alcotest.(check int) "first 10,000 commits" 10_000 c0;
  let w1, c1 = puts 10_000 in
  let w2, c2 = puts 10_000 in
  Alcotest.(check int) "next 10,000 commits" 10_000 (c2 - c1);
  if w2 - w1 >= c2 - c1 then
    Alcotest.failf "the handle grew %d words over %d commits" (w2 - w1) (c2 - c1)

let suite =
  [
    ( "raft_replication",
      [
        Alcotest.test_case "groups formed" `Quick test_groups_formed;
        Alcotest.test_case "commits replicate through raft" `Quick
          test_commits_replicate_through_raft;
        Alcotest.test_case "failover from raft replica" `Quick test_failover_from_raft_replica;
        Alcotest.test_case "raft traffic charged" `Quick test_raft_traffic_is_charged;
        Alcotest.test_case "group leaders elected" `Quick test_group_leaders_elected;
        Alcotest.test_case "a command's CRC covers it" `Quick test_command_crc;
        Alcotest.test_case "append entries size each command" `Quick test_append_entries_size;
        Alcotest.test_case "retains nothing per commit" `Quick test_retains_nothing_per_commit;
      ] );
  ]
