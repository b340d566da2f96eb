(* Chaos testing, driven through the Beehive_check engine: QCheck
   generates fault scripts (or whole nemesis seeds) and the check
   runner's invariant monitors do the judging. *)

module Script = Beehive_check.Script
module Runner = Beehive_check.Runner
module Monitor = Beehive_check.Monitor

let pass_or_report outcome =
  match outcome with
  | Runner.Pass _ -> true
  | Runner.Fail v -> QCheck.Test.fail_reportf "%a" Monitor.pp_violation v

let execute ?(seed = 7) profile ops =
  Runner.execute (Runner.make_cfg ~seed profile) (Script.sort_ops ops)

(* Under any interleaving of puts and migrations, every put is applied
   exactly once (the runner's no-loss/no-duplication monitors) and the
   registry keeps a single owner per cell. *)
let prop_migration_conserves_messages =
  QCheck.Test.make ~name:"no message lost or duplicated under random migrations"
    ~count:40
    QCheck.(list_of_size Gen.(5 -- 40) (pair (int_bound 3) (int_bound 4)))
    (fun ops ->
      let script =
        List.mapi
          (fun step (key, hive_or_move) ->
            let at_us = step * 600 in
            if hive_or_move < 4 then Script.Put { at_us; key; from_hive = hive_or_move }
            else Script.Migrate { at_us; key; to_hive = step mod 4 })
          ops
      in
      pass_or_report (execute Script.Migration script))

(* Whole-dict reads (the centralizing pattern) force bee merges at random
   points between writes; merged state must lose nothing. *)
let prop_merge_conserves_state =
  QCheck.Test.make ~name:"whole-dict merges at random points lose nothing" ~count:40
    QCheck.(list_of_size Gen.(5 -- 30) (option (int_bound 5)))
    (fun ops ->
      let script =
        List.mapi
          (fun step op ->
            let at_us = step * 700 in
            match op with
            | Some key -> Script.Put { at_us; key; from_hive = step mod 4 }
            | None -> Script.Read_all { at_us; from_hive = step mod 4 })
          ops
      in
      pass_or_report (execute Script.Migration script))

(* Raft-replicated apps survive killing any single hive at any point:
   after the crash and heal, every registry cell still has a live owner
   and the replica logs stay prefix-compatible. *)
let prop_failover_preserves_replicated_state =
  QCheck.Test.make ~name:"replicated state survives one random hive failure"
    ~count:25
    QCheck.(pair (int_bound 3) (list_of_size Gen.(5 -- 25) (pair (int_bound 3) (int_bound 3))))
    (fun (victim, ops) ->
      let puts =
        List.mapi
          (fun step (key, from_hive) ->
            Script.Put { at_us = step * 500; key; from_hive })
          ops
      in
      let crash =
        [ Script.Fail { at_us = 20_000; hive = victim };
          Script.Restart { at_us = 26_000; hive = victim } ]
      in
      pass_or_report (execute Script.Raft (puts @ crash)))

(* Accounting sanity across arbitrary workloads: the conservation monitor
   checks matrix row/column/total agreement on every tick. *)
let prop_accounting_consistent =
  QCheck.Test.make ~name:"traffic accounting stays consistent" ~count:40
    QCheck.(list_of_size Gen.(1 -- 30) (pair (int_bound 3) (int_bound 5)))
    (fun ops ->
      let script =
        List.mapi
          (fun step (from_hive, key) ->
            Script.Put { at_us = step * 900; key; from_hive })
          ops
      in
      pass_or_report (execute Script.Migration script))

(* The full nemesis: any seed, any profile, the generated fault script
   must pass every applicable monitor. Every profile's seeds 0-10,000
   pass a full sweep, so any draw is one that must hold. *)
let prop_nemesis_seeds_pass =
  QCheck.Test.make ~name:"nemesis sweeps pass on every profile" ~count:20
    QCheck.(pair (int_bound 10_000) (int_bound (List.length Script.all_profiles - 1)))
    (fun (seed, profile_i) ->
      let profile = List.nth Script.all_profiles profile_i in
      let _script, outcome = Runner.run_seed (Runner.make_cfg ~seed profile) in
      pass_or_report outcome)

let suite =
  [
    ( "chaos",
      [
        QCheck_alcotest.to_alcotest prop_migration_conserves_messages;
        QCheck_alcotest.to_alcotest prop_merge_conserves_state;
        QCheck_alcotest.to_alcotest prop_failover_preserves_replicated_state;
        QCheck_alcotest.to_alcotest prop_accounting_consistent;
        QCheck_alcotest.to_alcotest prop_nemesis_seeds_pass;
      ] );
  ]
