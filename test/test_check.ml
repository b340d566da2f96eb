(* The beehive_check harness itself: corpus replay, the forwarding-bug
   and dedup-off self-tests (deliberately re-introduced historical bugs
   must be caught and shrunk), fail/restart edge cases, the failure
   detector's eviction/rejoin behavior, partition-profile scripts, and
   the shrinker. *)

open Helpers
module Script = Beehive_check.Script
module Nemesis = Beehive_check.Nemesis
module Monitor = Beehive_check.Monitor
module Runner = Beehive_check.Runner
module Shrink = Beehive_check.Shrink
module Check = Beehive_check.Check
module Failure_detector = Beehive_core.Failure_detector
module Transport = Beehive_net.Transport
module Raft_replication = Beehive_core.Raft_replication

(* --- Regression seed corpus ------------------------------------------ *)

let parse_corpus path =
  let ic = open_in path in
  let rec go acc n =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc (n + 1)
      else
        (match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | ( [ profile; seed; ticks ]
          | [ profile; seed; ticks; ("lin" | "outbox") ] ) as fields ->
          let workload = match fields with [ _; _; _; w ] -> Some w | _ -> None in
          let lin = workload = Some "lin" in
          let outbox = workload = Some "outbox" in
          (match Script.profile_of_string profile with
          | Ok p ->
            go
              ((p, int_of_string seed, int_of_string ticks, lin, outbox) :: acc)
              (n + 1)
          | Error e -> Alcotest.fail (Printf.sprintf "seeds.corpus:%d: %s" n e))
        | _ -> Alcotest.fail (Printf.sprintf "seeds.corpus:%d: malformed line" n))
  in
  let entries = go [] 1 in
  close_in ic;
  entries

(* Every corpus line must pass, and its width-1 [Runner.digest] is pinned
   in [behaviour.digests] so a change that alters simulated behaviour
   fails here even when every monitor still passes. *)
let test_corpus_replays_clean () =
  let entries = parse_corpus "seeds.corpus" in
  Alcotest.(check bool) "corpus is not empty" true (List.length entries >= 10);
  let digests =
    List.map
      (fun (profile, seed, ticks, lin, outbox) ->
        let name = Script.profile_to_string profile in
        match Runner.digest (Runner.make_cfg ~ticks ~lin ~outbox ~seed profile) with
        | Runner.Pass _, digest ->
          let workload = if lin then " lin" else if outbox then " outbox" else "" in
          (Printf.sprintf "%s %d %d%s" name seed ticks workload, digest)
        | Runner.Fail v, _ ->
          Alcotest.fail
            (Format.asprintf "corpus seed %s/%d regressed: %a" name seed
               Monitor.pp_violation v))
      entries
  in
  check_pinned ~section:"corpus" digests

(* Every profile is one row of [Script.spec]: its name round-trips and
   its fault mix is cumulative, ending at 100. *)
let test_profile_rows () =
  List.iter
    (fun p ->
      let name = Script.profile_to_string p in
      Alcotest.(check bool) (name ^ " round-trips") true (Script.profile_of_string name = Ok p);
      let a, b, c, d, e, f, g, last = (Script.spec p).Script.sp_mix in
      let bounds = [ a; b; c; d; e; f; g; last ] in
      Alcotest.(check (list int)) (name ^ " mix is cumulative") (List.sort Int.compare bounds)
        bounds;
      Alcotest.(check int) (name ^ " mix ends at 100") 100 last)
    Script.all_profiles;
  Alcotest.(check bool) "unknown name rejected" true
    (Result.is_error (Script.profile_of_string "nope"))

(* An injected bug belongs to the platform built with it. Next to a
   live platform running with forwarding off, migration seed 2 fails
   under that bug and, built clean, still replays to its corpus pin. *)
let test_injected_bug_stays_in_its_platform () =
  let engine, bugged = make_platform ~inject:Platform.Forwarding_off ~apps:[ kv_app () ] () in
  for i = 0 to 9 do
    put bugged ~from:(i mod 4) ~key:(Printf.sprintf "k%d" i) ~value:1
  done;
  run_for engine 0.01;
  let bugged_cfg = Runner.make_cfg ~inject:Platform.Forwarding_off ~seed:2 Script.Migration in
  (match Runner.run_seed bugged_cfg with
  | _, Runner.Fail _ -> ()
  | _, Runner.Pass _ -> Alcotest.fail "migration seed 2 passed with forwarding off");
  let key = "migration 2 30" in
  (match Runner.digest (Runner.make_cfg ~seed:2 Script.Migration) with
  | Runner.Pass _, digest ->
    Alcotest.(check string) key (List.assoc key (pinned ~section:"corpus")) digest
  | Runner.Fail v, _ -> Alcotest.failf "%s failed: %a" key Monitor.pp_violation v);
  drain engine;
  Alcotest.(check int) "the bugged platform handled its puts" 10
    (Platform.total_processed bugged)

(* --- Self-test: the harness catches a re-introduced historical bug --- *)

(* The first failure of a sweep run with [inject], in batches of ten
   seeds so a typical run stops after the first few; fails the test if
   200 seeds pass. *)
let first_failure ?(outbox = false) ~inject profile =
  let rec sweep first_seed =
    if first_seed >= 200 then Alcotest.fail "bug not caught within 200 seeds"
    else
      let report =
        Check.run ~seeds:10 (Runner.make_cfg ~outbox ~inject ~seed:first_seed profile)
      in
      match report.Check.rp_failures with
      | [] -> sweep (first_seed + 10)
      | f :: _ -> f
  in
  sweep 0

(* Disabling in-flight forwarding to merged-away bees (the historical
   bug) must be caught within 200 seeds, shrink to a handful of events,
   and replay deterministically from the printed seed. *)
let test_catches_forwarding_bug () =
  let f = first_failure ~inject:Platform.Forwarding_off Script.Migration in
  Alcotest.(check bool)
    "shrunk to at most 5 events" true
    (List.length f.Check.f_shrunk <= 5);
  Alcotest.(check bool)
    "shrunk trace replays deterministically" true f.Check.f_replays;
  (* The violation is a delivery one, not an unrelated crash. *)
  Alcotest.(check bool)
    "violated a delivery monitor" true
    (List.mem f.Check.f_violation.Monitor.v_monitor
       [ "no-loss"; "no-duplication"; "durable-ownership" ])

(* A disabled receiver dedup (the transport's other half) must equally be
   caught by the partition profile's lossy windows: a lost ack forces a
   retransmission whose copy is now applied twice, tripping
   no-duplication. Receiver dedup has two layers — the transport's cutoff
   and the durable inbox — so the bug switches off both (the inbox alone
   masks the transport's, see the next test). *)
let test_catches_dedup_bug () =
  let f = first_failure ~inject:Platform.Dedup_off Script.Partition in
  Alcotest.(check bool)
    "shrunk to at most 6 events" true
    (List.length f.Check.f_shrunk <= 6);
  Alcotest.(check bool)
    "shrunk trace replays deterministically" true f.Check.f_replays;
  Alcotest.(check bool)
    "violated a delivery monitor" true
    (List.mem f.Check.f_violation.Monitor.v_monitor
       [ "no-duplication"; "no-loss" ])

(* With only the transport's dedup off, the durable inbox still
   suppresses the retransmitted copies: partition seed 0 passes, and the
   suppressions are visible in the platform's [outbox.dups_suppressed]
   gauge. *)
let test_inbox_masks_transport_dedup_off () =
  let cfg = Runner.make_cfg ~inject:Platform.Transport_dedup_off ~seed:0 Script.Partition in
  let script =
    Nemesis.generate ~rng:(Beehive_sim.Rng.create 0) ~profile:Script.Partition
      ~n_hives:cfg.Runner.r_n_hives ~ticks:cfg.Runner.r_ticks
  in
  let captured = ref None in
  (match Runner.execute ~observe:(fun _ p -> captured := Some p) cfg script with
  | Runner.Pass _ -> ()
  | Runner.Fail v -> Alcotest.fail (Format.asprintf "%a" Monitor.pp_violation v));
  let suppressed =
    List.assoc "outbox.dups_suppressed" (Platform.gauges (Option.get !captured))
  in
  Alcotest.(check bool)
    (Printf.sprintf "inbox suppressed duplicates (%d)" suppressed)
    true (suppressed > 0)

(* Skipping outbox replay on restart (recovery "loses" the outbox file)
   silently drops committed emits whose ack never arrived. The
   exactly-once monitor's journal-vs-applied comparison must catch it,
   and the failing schedule must shrink to a handful of events. *)
let test_catches_lost_outbox_bug () =
  let f = first_failure ~outbox:true ~inject:Platform.Lost_outbox Script.Durability in
  Alcotest.(check string) "caught by the exactly-once monitor" "exactly-once"
    f.Check.f_violation.Monitor.v_monitor;
  Alcotest.(check bool) "shrunk to at most 6 events" true
    (List.length f.Check.f_shrunk <= 6);
  Alcotest.(check bool) "shrunk trace replays deterministically" true
    f.Check.f_replays

(* Wiping the durable inbox before replay (recovery "loses" the dedup
   cutoff) makes replayed entries and racing retransmissions apply twice.
   Caught by the same monitor from the other side: applied > journaled. *)
let test_catches_replay_dup_bug () =
  let f = first_failure ~outbox:true ~inject:Platform.Replay_dup Script.Durability in
  Alcotest.(check bool) "caught by a duplication monitor" true
    (List.mem f.Check.f_violation.Monitor.v_monitor
       [ "exactly-once"; "no-duplication" ]);
  Alcotest.(check bool) "shrunk to at most 6 events" true
    (List.length f.Check.f_shrunk <= 6);
  Alcotest.(check bool) "shrunk trace replays deterministically" true
    f.Check.f_replays

(* Disabling WAL/snapshot frame verification (checksums-off) makes the
   store serve injected disk damage as truth. The disk profile must
   catch it on the pinned seeds below: crash-free seeds trip
   no-silent-corruption (the oracle sees a broken chain the store never
   flagged), and seeds whose damage survives into a recovery trip
   no-duplication (a garbled counter replayed as a huge value). Torn
   tails stay detected either way — length framing needs no checksum —
   so every catch here is specifically a garbled-record escape. *)
let test_catches_checksums_off_bug () =
  let pinned = [ 8; 9; 10; 11; 13; 14 ] in
  let failures =
    List.concat_map
      (fun seed ->
        (Check.run ~seeds:1
           (Runner.make_cfg ~inject:Platform.Checksums_off ~seed Script.Disk))
          .Check.rp_failures)
      pinned
  in
  Alcotest.(check bool)
    "caught on at least 5 pinned seeds" true
    (List.length failures >= 5);
  List.iter
    (fun f ->
      let seed = f.Check.f_cfg.Runner.r_seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d shrunk to at most 6 events" seed)
        true
        (List.length f.Check.f_shrunk <= 6);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d replays deterministically" seed)
        true f.Check.f_replays;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d violated an integrity monitor" seed)
        true
        (List.mem f.Check.f_violation.Monitor.v_monitor
           [ "no-silent-corruption"; "no-duplication"; "repair-convergence" ]))
    failures

(* The WAL must journal exactly what the bee committed. One stray append
   to a live durable bee's log, made behind the platform's back, leaves
   the WAL holding a write the bee never made. Nothing reads the log on a
   crash-free run, so only wal-matches-state can see it. *)
let test_catches_stray_wal_write () =
  let script =
    [
      Script.Put { at_us = 1_000; key = 0; from_hive = 0 };
      Script.Put { at_us = 2_000; key = 1; from_hive = 1 };
      Script.Put { at_us = 12_000; key = 0; from_hive = 2 };
    ]
  in
  let wrote = ref false in
  let stray engine platform =
    ignore
      (Engine.schedule_after engine (Simtime.of_ms 15) (fun () ->
           match
             ( Platform.store platform,
               List.find_opt
                 (fun v -> v.Platform.view_alive && not v.Platform.view_is_local)
                 (Platform.live_bees platform) )
           with
           | Some s, Some v ->
             Beehive_store.Store.append s ~bee:v.Platform.view_id
               ~hive:v.Platform.view_hive ~outbox:[] ~inbox:[] ~consumed:Beehive_store.Mark.none
               [ ("stray", "k", Some (Value.V_int 1)) ];
             wrote := true
           | _ -> ()))
  in
  let outcome =
    Runner.execute ~observe:stray (Runner.make_cfg ~seed:0 Script.Durability) script
  in
  Alcotest.(check bool) "the stray write landed on a live durable bee" true !wrote;
  match outcome with
  | Runner.Fail v ->
    Alcotest.(check string) "caught by wal-matches-state" "wal-matches-state"
      v.Monitor.v_monitor
  | Runner.Pass _ -> Alcotest.fail "a WAL write the bee never made went unnoticed"

(* A scripted poison scenario: the always-raising message must end in
   quarantine (quarantine-accounting equality on a crash-free run) while
   the healthy puts around it stay exactly-once. *)
let test_poison_script_quarantines () =
  let script =
    [
      Script.Put { at_us = 1_000; key = 0; from_hive = 0 };
      Script.Put { at_us = 2_000; key = 1; from_hive = 1 };
      Script.Poison { at_us = 5_000; key = 0; from_hive = 2 };
      Script.Put { at_us = 12_000; key = 0; from_hive = 3 };
      Script.Read_all { at_us = 20_000; from_hive = 1 };
    ]
  in
  match
    Runner.execute (Runner.make_cfg ~outbox:true ~seed:5 Script.Durability) script
  with
  | Runner.Pass _ -> ()
  | Runner.Fail v -> Alcotest.fail (Format.asprintf "%a" Monitor.pp_violation v)

(* --- Failure detector: eviction, failover, rejoin -------------------- *)

(* A genuinely crashed hive is detected by heartbeat silence and failed
   over without anyone calling fail_hive: the bees of replicated apps
   reappear on live hives with their state. *)
let test_detector_fails_over_crashed_hive () =
  let engine, platform = make_platform ~apps:[ replicated_kv_app () ] () in
  ignore (Raft_replication.install platform ());
  let det = Failure_detector.install platform in
  run_for engine 2.0;  (* let the group leaders elect *)
  for i = 0 to 5 do
    put platform ~from:(i mod 4) ~key:(Printf.sprintf "k%d" i) ~value:1
  done;
  run_for engine 3.0;
  let owner = owner_exn platform ~app:"test.kv" "k0" in
  let hive = (Option.get (Platform.bee_view platform owner)).Platform.view_hive in
  Platform.crash_hive platform hive;
  run_for engine 0.02;
  Alcotest.(check bool) "silence was confirmed" true
    (Failure_detector.evictions det >= 1);
  Alcotest.(check bool) "crashed hive is suspected" true
    (List.mem hive (Failure_detector.suspected det));
  let owner' = owner_exn platform ~app:"test.kv" "k0" in
  let hive' = (Option.get (Platform.bee_view platform owner')).Platform.view_hive in
  Alcotest.(check bool) "owner failed over to a live hive" true
    (hive' <> hive && Platform.hive_alive platform hive');
  Alcotest.(check (option int)) "replicated state recovered" (Some 1)
    (store_value platform ~bee:owner' ~key:"k0");
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* A false positive: an isolated-but-running hive gets evicted (its
   unrecoverable bees fenced in place), then heals back in when its
   heartbeats get through again — carrying a stale incarnation that is
   rejected — with no state lost and no bee left paused. *)
let test_detector_evicts_and_rejoins_isolated_hive () =
  let engine, platform = durable_platform ~apps:[ kv_app () ] () in
  let det = Failure_detector.install platform in
  for i = 0 to 7 do
    put platform ~from:(i mod 4) ~key:(Printf.sprintf "k%d" i) ~value:1
  done;
  drain engine;
  (* Remember what the victim hive owns before the network turns on it. *)
  let victim = 2 in
  let held_before =
    List.filter_map
      (fun i ->
        let key = Printf.sprintf "k%d" i in
        let bee = owner_exn platform ~app:"test.kv" key in
        let v = Option.get (Platform.bee_view platform bee) in
        if v.Platform.view_hive = victim then Some (key, bee) else None)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let chans = Platform.channels platform in
  List.iter
    (fun p -> if p <> victim then Beehive_net.Channels.partition chans ~a:victim ~b:p)
    [ 0; 1; 2; 3 ];
  run_for engine 0.02;
  Alcotest.(check bool) "victim evicted" true (Platform.hive_state platform victim = `Fenced);
  Alcotest.(check (list int)) "exactly the victim suspected" [ victim ]
    (Failure_detector.suspected det);
  Beehive_net.Channels.heal_all chans;
  run_for engine 0.02;
  Alcotest.(check bool) "victim rejoined" true (Platform.hive_alive platform victim);
  Alcotest.(check bool) "detector converged" true (Failure_detector.suspected det = []);
  Alcotest.(check int) "no bee left paused" 0 (Platform.paused_bees platform);
  List.iter
    (fun (key, bee) ->
      Alcotest.(check (option int))
        (Printf.sprintf "fenced state of %s intact after rejoin" key)
        (Some 1)
        (store_value platform ~bee ~key))
    held_before;
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* A symmetric 2-2 split leaves both sides below the majority quorum of
   the full cluster: nobody may be evicted, and the split just heals. *)
let test_quorum_blocks_minority_eviction () =
  let engine, platform = make_platform ~apps:[ kv_app () ] () in
  let det = Failure_detector.install platform in
  put platform ~from:0 ~key:"a" ~value:1;
  drain engine;
  let chans = Platform.channels platform in
  List.iter
    (fun (a, b) -> Beehive_net.Channels.partition chans ~a ~b)
    [ (0, 2); (0, 3); (1, 2); (1, 3) ];
  run_for engine 0.03;
  Alcotest.(check int) "no eviction below quorum" 0 (Failure_detector.evictions det);
  for h = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "hive %d still in membership" h)
      true
      (Platform.hive_alive platform h)
  done;
  Beehive_net.Channels.heal_all chans;
  run_for engine 0.01;
  Alcotest.(check bool) "converged after heal" true (Failure_detector.suspected det = [])

(* --- Partition-profile scripts --------------------------------------- *)

let exec_partition ?(seed = 7) script =
  Runner.execute (Runner.make_cfg ~seed Script.Partition) script

(* Isolate a hive mid-workload, keep writing through the outage, heal:
   every put must land exactly once (no-loss stays armed — the script is
   crash-free) and membership must reconverge. *)
let test_partition_then_heal_script () =
  let script =
    [
      Script.Put { at_us = 1_000; key = 0; from_hive = 0 };
      Script.Put { at_us = 2_000; key = 1; from_hive = 1 };
      Script.Put { at_us = 3_000; key = 2; from_hive = 2 };
      (* Cut hive 1 off from every peer... *)
      Script.Partition_pair { at_us = 5_000; a = 1; b = 0 };
      Script.Partition_pair { at_us = 5_000; a = 1; b = 2 };
      Script.Partition_pair { at_us = 5_000; a = 1; b = 3 };
      (* ...write into the outage (owners on hive 1 are unreachable;
         the transport must buffer and retry across the heal)... *)
      Script.Put { at_us = 8_000; key = 1; from_hive = 2 };
      Script.Put { at_us = 9_000; key = 0; from_hive = 3 };
      Script.Put { at_us = 10_000; key = 2; from_hive = 0 };
      (* ...heal well before the horizon so the detector can walk the
         evicted hive back in. *)
      Script.Heal { at_us = 16_000 };
      Script.Put { at_us = 22_000; key = 1; from_hive = 0 };
    ]
  in
  match exec_partition script with
  | Runner.Pass s ->
    Alcotest.(check bool) "transport had to retransmit" true (s.Runner.s_retransmits > 0)
  | Runner.Fail v -> Alcotest.fail (Format.asprintf "%a" Monitor.pp_violation v)

(* A full-horizon 1% lossy window: the no-loss monitor must still hold,
   i.e. retransmission — not luck — carries every put through. Checked
   over several engine seeds (different loss rolls); every run must pass
   and the loss must actually have bitten in at least one of them. *)
let test_loss_window_holds_no_loss () =
  let puts =
    List.init 200 (fun i ->
        Script.Put { at_us = 500 + (i * 140); key = i mod 6; from_hive = i mod 4 })
  in
  let script =
    Script.sort_ops
      (Script.Drop_links { at_us = 400; loss = 0.01; dur_us = 29_000 } :: puts)
  in
  let total_retransmits = ref 0 in
  List.iter
    (fun seed ->
      match exec_partition ~seed script with
      | Runner.Pass s -> total_retransmits := !total_retransmits + s.Runner.s_retransmits
      | Runner.Fail v ->
        Alcotest.fail (Format.asprintf "seed %d: %a" seed Monitor.pp_violation v))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "loss actually bit (retransmissions happened)" true
    (!total_retransmits > 0)

(* --- fail_hive / restart_hive edge cases ----------------------------- *)

(* Crashing a hive with durability disabled kills its bees outright;
   restarting brings the hive back empty and the platform keeps working. *)
let test_crash_without_durability () =
  let engine, platform = make_platform ~n_hives:4 ~apps:[ kv_app () ] () in
  put platform ~from:1 ~key:"a" ~value:1;
  drain engine;
  let owner = owner_exn platform ~app:"test.kv" "a" in
  let hive = (Option.get (Platform.bee_view platform owner)).Platform.view_hive in
  Platform.fail_hive platform hive;
  drain engine;
  Alcotest.(check bool) "hive down" false (Platform.hive_alive platform hive);
  Alcotest.(check (option int))
    "unreplicated, undurable state is lost" None
    (Platform.find_owner platform ~app:"test.kv" (Cell.cell "store" "a"));
  Platform.restart_hive platform hive;
  drain engine;
  Alcotest.(check bool) "hive back" true (Platform.hive_alive platform hive);
  (* New work lands normally, including on the restarted hive. *)
  put platform ~from:hive ~key:"b" ~value:1;
  drain engine;
  let owner_b = owner_exn platform ~app:"test.kv" "b" in
  Alcotest.(check (option int)) "new key counted" (Some 1)
    (store_value platform ~bee:owner_b ~key:"b");
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* A second fail_hive on an already-failed hive is a no-op, not a second
   round of failovers or kills. *)
let test_double_fail_hive_idempotent () =
  let engine, platform =
    durable_platform ~apps:[ replicated_kv_app () ] ()
  in
  for i = 0 to 5 do
    put platform ~from:(i mod 4) ~key:(Printf.sprintf "k%d" i) ~value:1
  done;
  drain engine;
  Platform.fail_hive platform 2;
  drain engine;
  let snapshot p =
    List.sort compare
      (List.map (fun v -> (v.Platform.view_id, v.Platform.view_hive)) (Platform.live_bees p))
  in
  let after_first = snapshot platform in
  Platform.fail_hive platform 2;
  drain engine;
  Alcotest.(check bool) "second fail_hive changed nothing" true
    (after_first = snapshot platform);
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* Restarting a hive that never failed leaves the platform untouched. *)
let test_restart_never_failed_hive () =
  let engine, platform = durable_platform () in
  put platform ~from:0 ~key:"a" ~value:3;
  drain engine;
  let owner = owner_exn platform ~app:"test.kv" "a" in
  Platform.restart_hive platform 3;
  drain engine;
  Alcotest.(check bool) "hive still alive" true (Platform.hive_alive platform 3);
  Alcotest.(check (option int)) "state untouched" (Some 3)
    (store_value platform ~bee:owner ~key:"a");
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* --- Mid-migration destination death --------------------------------- *)

(* The optimizer's migration path with the destination dying while the
   package is in flight, then the nemesis restarting it: the single-owner
   and durable-ownership monitors must hold throughout. *)
let test_mid_migration_destination_death () =
  let script =
    [
      Script.Put { at_us = 1_000; key = 0; from_hive = 0 };
      Script.Put { at_us = 2_000; key = 1; from_hive = 1 };
      Script.Put { at_us = 3_000; key = 0; from_hive = 3 };
      (* Start the live migration, then kill the destination 100 us
         later — well inside the transfer — and restart it. *)
      Script.Migrate { at_us = 10_000; key = 0; to_hive = 2 };
      Script.Fail { at_us = 10_100; hive = 2 };
      Script.Restart { at_us = 18_000; hive = 2 };
    ]
  in
  match Runner.execute (Runner.make_cfg ~seed:11 Script.Durability) script with
  | Runner.Pass _ -> ()
  | Runner.Fail v ->
    Alcotest.fail (Format.asprintf "%a" Monitor.pp_violation v)

(* --- Shrinker -------------------------------------------------------- *)

(* ddmin on a synthetic predicate: failure needs exactly ops #3 and #17
   together; everything else must be shaved off. *)
let test_shrinker_minimizes () =
  let ops =
    List.init 24 (fun i -> Script.Put { at_us = i * 100; key = i; from_hive = 0 })
  in
  let culprit op =
    match op with Script.Put { key = 3 | 17; _ } -> true | _ -> false
  in
  let still_fails ops = List.length (List.filter culprit ops) = 2 in
  let shrunk = Shrink.minimize ~still_fails ops in
  Alcotest.(check int) "exactly the two culprits" 2 (List.length shrunk);
  Alcotest.(check bool) "still failing" true (still_fails shrunk)

(* The nemesis is a pure function of the seed. *)
let test_nemesis_deterministic () =
  let gen seed =
    Nemesis.generate ~rng:(Beehive_sim.Rng.create seed) ~profile:Script.All
      ~n_hives:4 ~ticks:30
  in
  Alcotest.(check bool) "same seed, same script" true (gen 5 = gen 5);
  Alcotest.(check bool) "different seeds differ" true (gen 5 <> gen 6)

let suite =
  [
    ( "check",
      [
        Alcotest.test_case "seed corpus replays clean" `Quick test_corpus_replays_clean;
        Alcotest.test_case "every profile row round-trips" `Quick test_profile_rows;
        Alcotest.test_case "injected bug stays in its platform" `Quick
          test_injected_bug_stays_in_its_platform;
        Alcotest.test_case "catches re-introduced forwarding bug" `Quick
          test_catches_forwarding_bug;
        Alcotest.test_case "catches disabled transport dedup" `Quick
          test_catches_dedup_bug;
        Alcotest.test_case "durable inbox masks transport dedup-off" `Quick
          test_inbox_masks_transport_dedup_off;
        Alcotest.test_case "catches lost outbox replay" `Quick
          test_catches_lost_outbox_bug;
        Alcotest.test_case "catches forgotten durable inbox" `Quick
          test_catches_replay_dup_bug;
        Alcotest.test_case "catches disabled frame checksums" `Quick
          test_catches_checksums_off_bug;
        Alcotest.test_case "catches a stray WAL write" `Quick
          test_catches_stray_wal_write;
        Alcotest.test_case "poison script ends in quarantine" `Quick
          test_poison_script_quarantines;
        Alcotest.test_case "detector fails over a crashed hive" `Quick
          test_detector_fails_over_crashed_hive;
        Alcotest.test_case "detector evicts and rejoins an isolated hive" `Quick
          test_detector_evicts_and_rejoins_isolated_hive;
        Alcotest.test_case "quorum blocks minority eviction" `Quick
          test_quorum_blocks_minority_eviction;
        Alcotest.test_case "partition-then-heal script converges" `Quick
          test_partition_then_heal_script;
        Alcotest.test_case "1% loss window holds no-loss" `Quick
          test_loss_window_holds_no_loss;
        Alcotest.test_case "crash with durability disabled" `Quick
          test_crash_without_durability;
        Alcotest.test_case "double fail_hive is idempotent" `Quick
          test_double_fail_hive_idempotent;
        Alcotest.test_case "restart of never-failed hive is a no-op" `Quick
          test_restart_never_failed_hive;
        Alcotest.test_case "mid-migration destination death" `Quick
          test_mid_migration_destination_death;
        Alcotest.test_case "shrinker minimizes to the culprits" `Quick
          test_shrinker_minimizes;
        Alcotest.test_case "nemesis is seed-deterministic" `Quick
          test_nemesis_deterministic;
      ] );
  ]
