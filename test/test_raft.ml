(* Raft consensus: election, replication, and the safety properties
   under crashes, partitions, and message loss. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Raft = Beehive_raft.Raft

let run_for = Helpers.run_for
let await_leader = Helpers.await_leader

let setup ?(n = 3) () =
  let engine = Engine.create () in
  let cluster = Cluster.create engine ~n in
  (engine, cluster)

let test_elects_single_leader () =
  let engine, cluster = setup () in
  let _ = await_leader engine cluster in
  run_for engine 2.0;
  Alcotest.(check int) "exactly one leader" 1 (List.length (Cluster.leaders cluster));
  (* Every follower knows the leader: a proposal there is refused with
     the leader's id as the hint. *)
  let l = Option.get (Cluster.leader cluster) in
  for i = 0 to Cluster.n cluster - 1 do
    if i <> l then
      match Raft.propose (Cluster.node cluster i) "probe" with
      | `Not_leader hint ->
        Alcotest.(check (option int)) (Printf.sprintf "node %d leader hint" i) (Some l) hint
      | `Proposed _ -> Alcotest.failf "follower %d accepted a proposal" i
  done

let test_replicates_commands () =
  let engine, cluster = setup () in
  let _ = await_leader engine cluster in
  for i = 1 to 10 do
    (match Cluster.propose_anywhere cluster (Printf.sprintf "cmd%d" i) with
    | `Proposed _ -> ()
    | `No_leader -> Alcotest.fail "lost the leader");
    run_for engine 0.2
  done;
  run_for engine 1.0;
  let expected = List.init 10 (fun i -> (i + 1, Printf.sprintf "cmd%d" (i + 1))) in
  for node = 0 to 2 do
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "node %d applied all in order" node)
      expected
      (Cluster.applied cluster node)
  done

let test_leader_failover_preserves_committed () =
  let engine, cluster = setup ~n:5 () in
  let l1 = await_leader engine cluster in
  (match Cluster.propose_anywhere cluster "before-crash" with
  | `Proposed _ -> ()
  | `No_leader -> Alcotest.fail "no leader");
  run_for engine 1.0;
  Cluster.crash cluster l1;
  let l2 = await_leader engine cluster in
  Alcotest.(check bool) "new leader differs" true (l1 <> l2);
  (match Cluster.propose_anywhere cluster "after-crash" with
  | `Proposed _ -> ()
  | `No_leader -> Alcotest.fail "no new leader");
  run_for engine 1.0;
  (* All live nodes applied both entries, in order. *)
  for i = 0 to 4 do
    if i <> l1 then
      Alcotest.(check (list string))
        (Printf.sprintf "node %d log" i)
        [ "before-crash"; "after-crash" ]
        (List.map snd (Cluster.applied cluster i))
  done;
  (* The crashed node catches up after restart. *)
  Cluster.restart cluster l1;
  run_for engine 2.0;
  Alcotest.(check (list string)) "restarted node caught up" [ "before-crash"; "after-crash" ]
    (List.map snd (Cluster.applied cluster l1))

let test_minority_partition_cannot_commit () =
  let engine, cluster = setup ~n:5 () in
  let l = await_leader engine cluster in
  (* Put the leader in a minority of 2. *)
  let follower = if l = 0 then 1 else 0 in
  let minority = [ l; follower ] in
  let majority = List.filter (fun i -> not (List.mem i minority)) [ 0; 1; 2; 3; 4 ] in
  Cluster.partition cluster [ minority; majority ];
  (* The old leader may accept proposals but can never commit them. *)
  let stale = Cluster.node cluster l in
  (match Raft.propose stale "doomed" with
  | `Proposed _ -> ()
  | `Not_leader _ -> Alcotest.fail "old leader should still think it leads");
  run_for engine 3.0;
  Alcotest.(check bool) "doomed entry not applied anywhere" true
    (List.for_all
       (fun i -> not (List.mem "doomed" (List.map snd (Cluster.applied cluster i))))
       [ 0; 1; 2; 3; 4 ]);
  (* The majority side elects its own leader and commits. *)
  let new_leader =
    match
      List.filter
        (fun i ->
          List.mem i majority && Raft.role (Cluster.node cluster i) = Raft.Leader)
        majority
    with
    | [ x ] -> x
    | _ -> Alcotest.fail "majority should have a unique leader"
  in
  (match Raft.propose (Cluster.node cluster new_leader) "lives" with
  | `Proposed _ -> ()
  | `Not_leader _ -> Alcotest.fail "majority leader rejects");
  run_for engine 2.0;
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "majority node %d" i)
        [ "lives" ]
        (List.map snd (Cluster.applied cluster i)))
    majority;
  (* After healing, the doomed entry is overwritten everywhere. *)
  Cluster.heal cluster;
  run_for engine 3.0;
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "healed node %d" i)
        [ "lives" ]
        (List.map snd (Cluster.applied cluster i)))
    [ 0; 1; 2; 3; 4 ]

let test_survives_message_loss () =
  let engine, cluster = setup () in
  Cluster.set_drop_rate cluster 0.2;
  let _ = await_leader engine cluster in
  for i = 1 to 5 do
    (match Cluster.propose_anywhere cluster (Printf.sprintf "lossy%d" i) with
    | `Proposed _ -> ()
    | `No_leader ->
      (* leadership may churn under loss; wait and retry once *)
      run_for engine 1.0;
      (match Cluster.propose_anywhere cluster (Printf.sprintf "lossy%d" i) with
      | `Proposed _ -> ()
      | `No_leader -> Alcotest.fail "no leader under 20% loss"));
    run_for engine 1.0
  done;
  Cluster.set_drop_rate cluster 0.0;
  run_for engine 3.0;
  Alcotest.(check bool) "messages were dropped" true (Cluster.messages_dropped cluster > 0);
  let logs = List.init 3 (fun i -> List.map snd (Cluster.applied cluster i)) in
  (match logs with
  | [ a; b; c ] ->
    Alcotest.(check (list string)) "b = a" a b;
    Alcotest.(check (list string)) "c = a" a c;
    Alcotest.(check int) "all five committed" 5 (List.length a)
  | _ -> assert false)

(* State-machine safety under random fault injection: whatever happens,
   the applied sequences of any two nodes are prefix-compatible. *)
let prop_state_machine_safety =
  QCheck.Test.make ~name:"applied logs are prefix-compatible under random faults" ~count:15
    QCheck.(list_of_size Gen.(5 -- 25) (int_bound 9))
    (fun events ->
      let engine = Engine.create ~seed:(Hashtbl.hash events) () in
      let cluster = Cluster.create engine ~n:3 in
      let down = Array.make 3 false in
      List.iteri
        (fun step ev ->
          Engine.run_until engine
            (Simtime.add (Engine.now engine) (Simtime.of_ms 400));
          (match ev with
          | 0 | 1 | 2 | 3 | 4 | 5 ->
            ignore (Cluster.propose_anywhere cluster (Printf.sprintf "c%d" step))
          | 6 ->
            let victim = step mod 3 in
            if (not down.(victim)) && Array.to_list down |> List.filter Fun.id |> List.length = 0
            then begin
              Cluster.crash cluster victim;
              down.(victim) <- true
            end
          | 7 | 8 ->
            Array.iteri
              (fun i d ->
                if d then begin
                  Cluster.restart cluster i;
                  down.(i) <- false
                end)
              down
          | _ ->
            Cluster.partition cluster [ [ 0; 1 ]; [ 2 ] ];
            ignore (Engine.schedule_after engine (Simtime.of_ms 600) (fun () -> Cluster.heal cluster))))
        events;
      (* Let the cluster settle and everyone catch up. *)
      Cluster.heal cluster;
      Array.iteri (fun i d -> if d then Cluster.restart cluster i) down;
      Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 5.0));
      let logs = List.init 3 (fun i -> Cluster.applied cluster i) in
      let prefix_compatible a b =
        let rec go = function
          | [], _ | _, [] -> true
          | x :: xs, y :: ys -> x = y && go (xs, ys)
        in
        go (a, b)
      in
      List.for_all
        (fun a -> List.for_all (fun b -> prefix_compatible a b) logs)
        logs)

let test_election_safety_over_time () =
  (* Track every (term, leader) pair ever observed; no term may have two. *)
  let engine, cluster = setup ~n:5 () in
  let seen = Hashtbl.create 16 in
  let ok = ref true in
  ignore
    (Engine.every engine (Simtime.of_ms 10) (fun () ->
         List.iter
           (fun l ->
             let term = Raft.current_term (Cluster.node cluster l) in
             match Hashtbl.find_opt seen term with
             | Some other when other <> l -> ok := false
             | _ -> Hashtbl.replace seen term l)
           (Cluster.leaders cluster)));
  (* Churn leadership a few times. *)
  for _ = 1 to 3 do
    let l = await_leader engine cluster in
    Cluster.crash cluster l;
    run_for engine 2.0;
    Cluster.restart cluster l;
    run_for engine 1.0
  done;
  Alcotest.(check bool) "at most one leader per term, ever" true !ok

(* The leader's log after proposing [cmds] and letting them replicate. *)
let replicated_log cmds =
  let engine, cluster = setup () in
  let l = await_leader engine cluster in
  List.iter (fun c -> ignore (Raft.propose (Cluster.node cluster l) c)) cmds;
  run_for engine 1.0;
  let node = Cluster.node cluster l in
  (node, Raft.log_entries node)

let test_crc_covers_the_command () =
  let node, log = replicated_log [ "alpha"; "beta" ] in
  match log with
  | [ e1; e2 ] ->
    Alcotest.(check bool) "a replicated entry verifies" true (Raft.verify_entry node e1);
    (* Same term and index, another command, the old checksum. *)
    let forged = { e1 with Raft.e_command = e2.Raft.e_command } in
    Alcotest.(check bool) "a swapped command fails" false (Raft.verify_entry node forged)
  | _ -> Alcotest.failf "expected 2 entries, got %d" (List.length log)

let test_append_entries_size () =
  let node, log = replicated_log [ "alpha"; "beta"; "" ] in
  let rpc =
    Raft.Append_entries
      { ae_term = 1; ae_leader = 0; ae_prev_index = 0; ae_prev_term = 0; ae_entries = log;
        ae_commit = 0 }
  in
  Alcotest.(check int) "40 + per entry 16 + its length" (40 + (16 + 5) + (16 + 4) + 16)
    (Raft.rpc_size node rpc)

let suite =
  [
    ( "raft",
      [
        Alcotest.test_case "elects a single leader" `Quick test_elects_single_leader;
        Alcotest.test_case "replicates commands in order" `Quick test_replicates_commands;
        Alcotest.test_case "leader failover preserves committed entries" `Quick
          test_leader_failover_preserves_committed;
        Alcotest.test_case "minority partition cannot commit" `Quick
          test_minority_partition_cannot_commit;
        Alcotest.test_case "survives 20% message loss" `Quick test_survives_message_loss;
        QCheck_alcotest.to_alcotest prop_state_machine_safety;
        Alcotest.test_case "election safety over time" `Quick test_election_safety_over_time;
        Alcotest.test_case "an entry's CRC covers its command" `Quick
          test_crc_covers_the_command;
        Alcotest.test_case "append entries size each command" `Quick test_append_entries_size;
      ] );
  ]
