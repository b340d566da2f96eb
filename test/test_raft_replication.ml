(* Consensus-backed state replication wired into the platform. *)

open Helpers
module Raft_replication = Beehive_core.Raft_replication

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
      ] );
  ]
