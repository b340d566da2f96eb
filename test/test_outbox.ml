(* The transactional outbox/inbox: atomic commit of state delta and
   buffered emits, crash-safe replay of un-acked entries, receiver-side
   durable dedup, handler-failure containment with retry and quarantine,
   and survival of the exactly-once pipeline across merges and
   migrations. Each test drives the canonical two-stage pipeline the
   check harness also uses: a forwarding app that journals a put and
   re-emits it inside the same transaction, feeding a keyed-counter
   app. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Cell = Beehive_core.Cell
module Stats = Beehive_core.Stats
module Outbox = Beehive_core.Outbox
module Store = Beehive_store.Store
module Mark = Beehive_store.Mark

type Message.payload += Fwd of string | Apply of string | Bad_map of string

let k_fwd = "outbox.fwd"
let k_apply = "outbox.apply"
let k_bad_map = "outbox.badmap"

(* The counting kv sink. [poison] makes the handler raise for that key,
   forever or for the first [heal_after] attempts. *)
let kv_app ?poison ?heal_after () =
  let attempts = ref 0 in
  let on_apply =
    App.handler ~kind:k_apply
      ~map:(fun msg ->
        match msg.Message.payload with
        | Apply key -> Mapping.with_key "store" key
        | _ -> Mapping.Drop)
      (fun ctx msg ->
        match msg.Message.payload with
        | Apply key ->
          (match poison with
          | Some bad when String.equal bad key ->
            incr attempts;
            (match heal_after with
            | Some n when !attempts > n -> ()
            | Some _ -> failwith "poisoned"
            | None -> failwith "poisoned")
          | Some _ | None -> ());
          Context.update ctx ~dict:"store" ~key (function
            | Some (Value.V_int n) -> Some (Value.V_int (n + 1))
            | _ -> Some (Value.V_int 1))
        | _ -> ())
  in
  (attempts, App.create ~name:"t.kv" ~dicts:[ "store" ] [ on_apply ])

(* The forwarding ingress: journal the key and re-emit it in the same
   transaction — the write and the send must commit or abort together. *)
let fwd_app () =
  let on_fwd =
    App.handler ~kind:k_fwd
      ~map:(fun msg ->
        match msg.Message.payload with
        | Fwd key -> Mapping.with_key "journal" key
        | _ -> Mapping.Drop)
      (fun ctx msg ->
        match msg.Message.payload with
        | Fwd key ->
          Context.update ctx ~dict:"journal" ~key (function
            | Some (Value.V_int n) -> Some (Value.V_int (n + 1))
            | _ -> Some (Value.V_int 1));
          Context.emit ctx ~kind:k_apply (Apply key)
        | _ -> ())
  in
  App.create ~name:"t.fwd" ~dicts:[ "journal" ] [ on_fwd ]

let make ?poison ?heal_after () =
  let engine = Engine.create () in
  let cfg =
    {
      (Platform.default_config ~n_hives:4) with
      Platform.durability = Some Beehive_store.Store.default_config;
    }
  in
  let platform = Platform.create engine cfg in
  let attempts, kv = kv_app ?poison ?heal_after () in
  Platform.register_app platform kv;
  Platform.register_app platform (fwd_app ());
  Platform.start platform;
  (engine, platform, attempts)

let drain engine =
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 1.0))

let inject platform ~from key =
  Platform.inject platform ~from:(Channels.Hive from) ~kind:k_fwd (Fwd key)

(* The key's counter, 0 until its owner writes one; [None] while the
   key has no owner. *)
let counter platform ~app ~dict key =
  Option.map
    (fun _ ->
      match Platform.read platform ~app ~dict ~key with Some (Value.V_int n) -> n | _ -> 0)
    (Platform.find_owner platform ~app (Cell.cell dict key))

let kv_count platform key = counter platform ~app:"t.kv" ~dict:"store" key
let journal_count platform key = counter platform ~app:"t.fwd" ~dict:"journal" key

(* Steps the engine in [step_us] increments until [pred] holds (or fails
   after [limit_us]) — used to catch the platform between a handler's
   commit and the fsync of the group commit it armed or rode, at most
   one fsync latency (100 µs) later. *)
let run_until_state engine ~step_us ~limit_us pred =
  let deadline = Simtime.add (Engine.now engine) (Simtime.of_us limit_us) in
  let rec go () =
    if pred () then ()
    else if Simtime.(Engine.now engine > deadline) then
      Alcotest.fail "condition not reached within the time limit"
    else begin
      Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_us step_us));
      go ()
    end
  in
  go ()

let bee_hive platform bee =
  (Option.get (Platform.bee_view platform bee)).Platform.view_hive

(* --- Healthy path ----------------------------------------------------- *)

(* No faults: every put crosses journal -> emit -> kv exactly once, every
   outbox entry is acked and retired, and nothing is quarantined. *)
let test_healthy_pipeline_exactly_once () =
  let engine, platform, _ = make () in
  inject platform ~from:0 "a";
  inject platform ~from:1 "a";
  inject platform ~from:2 "b";
  drain engine;
  Alcotest.(check (option int)) "journal a" (Some 2) (journal_count platform "a");
  Alcotest.(check (option int)) "journal b" (Some 1) (journal_count platform "b");
  Alcotest.(check (option int)) "kv a" (Some 2) (kv_count platform "a");
  Alcotest.(check (option int)) "kv b" (Some 1) (kv_count platform "b");
  Alcotest.(check int) "all entries acked and retired" 0
    (Platform.outbox_unacked_total platform);
  Alcotest.(check int) "nothing quarantined" 0 (Platform.total_quarantined platform);
  Alcotest.(check int) "no handler faults" 0 (Platform.handler_faults platform)

(* --- Crash atomicity -------------------------------------------------- *)

(* Crash the ingress hive inside the group-commit window: the journal
   write and the buffered emit rode the same un-fsynced record, so the
   crash discards both. Neither a journal entry nor a kv apply survives —
   the put never happened. *)
let test_crash_before_fsync_loses_both_atomically () =
  let engine, platform, _ = make () in
  inject platform ~from:0 "a";
  run_until_state engine ~step_us:25 ~limit_us:5_000 (fun () ->
      journal_count platform "a" = Some 1);
  let fwd = Option.get (Platform.find_owner platform ~app:"t.fwd" (Cell.cell "journal" "a")) in
  Platform.crash_hive platform (bee_hive platform fwd);
  drain engine;
  Channels.heal_all (Platform.channels platform);
  for h = 0 to 3 do
    if Platform.hive_crashed platform h then Platform.restart_hive platform h
  done;
  drain engine;
  Alcotest.(check (option int)) "journal write died with the batch" (Some 0)
    (journal_count platform "a");
  Alcotest.(check (option int)) "the buffered emit died with it" None
    (kv_count platform "a");
  Alcotest.(check int) "no orphaned outbox entry" 0
    (Platform.outbox_unacked_total platform)

(* Crash the kv-side hive after the emit was applied but before the
   receiver's fsync: the kv delta and its inbox mark die together, the
   sender's durable entry stays un-acked, and restart-time replay
   re-applies the put exactly once. *)
let test_crash_after_fsync_replays_exactly_once () =
  let engine, platform, _ = make () in
  inject platform ~from:0 "a";
  (* The kv apply implies the sender's record is already fsynced: emits
     only dispatch once their group-commit record is durable. *)
  run_until_state engine ~step_us:25 ~limit_us:10_000 (fun () ->
      kv_count platform "a" = Some 1);
  let kv = Option.get (Platform.find_owner platform ~app:"t.kv" (Cell.cell "store" "a")) in
  Platform.crash_hive platform (bee_hive platform kv);
  drain engine;
  Channels.heal_all (Platform.channels platform);
  for h = 0 to 3 do
    if Platform.hive_crashed platform h then Platform.restart_hive platform h
  done;
  drain engine;
  Alcotest.(check (option int)) "journal survived" (Some 1) (journal_count platform "a");
  Alcotest.(check (option int)) "replay re-applied the put exactly once" (Some 1)
    (kv_count platform "a");
  Alcotest.(check int) "replayed entry re-acked" 0
    (Platform.outbox_unacked_total platform)

(* The forwarder's record is durable and its emit applied, but the kv
   delta still rides an un-fsynced record; a torn write then destroys the
   forwarder's record. The hive's crash drops the kv delta, and restart's
   fsck truncates the torn record and its emit with it. No other copy of
   the entry may replay it: the transaction was rolled back, so its
   onward put must not be applied. *)
let test_torn_record_emit_not_replayed () =
  let engine, platform, _ = make () in
  inject platform ~from:0 "a";
  run_until_state engine ~step_us:25 ~limit_us:10_000 (fun () ->
      kv_count platform "a" = Some 1);
  let store = Option.get (Platform.store platform) in
  let fwd = Option.get (Platform.find_owner platform ~app:"t.fwd" (Cell.cell "journal" "a")) in
  Alcotest.(check bool) "the forwarder's record torn" true
    (Store.tear_tail store ~bee:fwd);
  Platform.fail_hive platform (bee_hive platform fwd);
  Platform.restart_hive platform (bee_hive platform fwd);
  Alcotest.(check int) "the un-acked emits are the store's rows"
    (List.length (Store.outbox_unacked store ~bee:fwd))
    (Platform.outbox_unacked_total platform);
  drain engine;
  let count c = Option.value ~default:0 c in
  Alcotest.(check int) "the journal write was rolled back" 0
    (count (journal_count platform "a"));
  Alcotest.(check int) "and its emit was not applied"
    (count (journal_count platform "a"))
    (count (kv_count platform "a"))

(* Both bees live on hive 0. At the first fsync (125 µs) the forwarder's
   emit is handed to routing, and its delivery to the kv bee waits in
   hive 0's memory. A crash erases it: the restarted kv bee must not
   handle it. The forwarder's durable entry replays instead, and the
   kv bee applies the put once, from the replay, with no duplicate to
   suppress. *)
let test_crash_erases_queued_delivery () =
  let engine, platform, _ = make () in
  inject platform ~from:0 "a";
  Engine.run_until engine (Simtime.of_us 125);
  Platform.fail_hive platform 0;
  Platform.restart_hive platform 0;
  drain engine;
  let gauge name = List.assoc name (Platform.gauges platform) in
  Alcotest.(check (option int)) "kv a" (Some 1) (kv_count platform "a");
  Alcotest.(check int) "no duplicate suppressed" 0 (gauge "outbox.dups_suppressed");
  Alcotest.(check int) "the erased delivery is a drop" 1 (gauge "dropped.dead_target")

(* Crash the receiver after its mark is durable but before the ack
   reaches the sender: the sender replays, and the receiver's durable
   inbox — not the transport's in-memory dedup, which died with the
   process — suppresses the duplicate. *)
let test_receiver_restart_dedups_replay () =
  let engine, platform, _ = make () in
  inject platform ~from:0 "a";
  run_until_state engine ~step_us:25 ~limit_us:10_000 (fun () ->
      kv_count platform "a" = Some 1);
  let kv = Option.get (Platform.find_owner platform ~app:"t.kv" (Cell.cell "store" "a")) in
  (* Everything becomes durable and the ack starts its 16-byte trip; the
     synchronous crash catches it in flight, from a now-dead sender. *)
  Platform.flush_durability platform;
  let before = List.assoc "outbox.dups_suppressed" (Platform.gauges platform) in
  Platform.crash_hive platform (bee_hive platform kv);
  drain engine;
  Channels.heal_all (Platform.channels platform);
  for h = 0 to 3 do
    if Platform.hive_crashed platform h then Platform.restart_hive platform h
  done;
  drain engine;
  Alcotest.(check (option int)) "kv applied exactly once" (Some 1)
    (kv_count platform "a");
  Alcotest.(check bool) "the durable inbox suppressed the replay" true
    (List.assoc "outbox.dups_suppressed" (Platform.gauges platform) > before);
  Alcotest.(check int) "suppressed replay still re-acked" 0
    (Platform.outbox_unacked_total platform)

(* --- Handler-failure containment -------------------------------------- *)

(* A handler that keeps raising burns its retry budget and lands in
   quarantine: the tx aborts atomically every time (no kv delta), the
   message is acked so the sender stops replaying, and the bee keeps
   serving healthy traffic. *)
let test_poison_quarantined_after_budget () =
  let engine, platform, attempts = make ~poison:"bad" () in
  inject platform ~from:0 "bad";
  drain engine;
  Alcotest.(check int) "every budgeted attempt ran" Beehive_core.Outbox.retry_budget
    !attempts;
  Alcotest.(check int) "handler faults counted" Beehive_core.Outbox.retry_budget
    (Platform.handler_faults platform);
  Alcotest.(check (option int)) "no kv delta escaped the aborts" (Some 0)
    (kv_count platform "bad");
  Alcotest.(check (option int)) "the journal side committed" (Some 1)
    (journal_count platform "bad");
  Alcotest.(check int) "message quarantined" 1 (Platform.total_quarantined platform);
  Alcotest.(check int) "quarantine acked the sender (no replay loop)" 0
    (Platform.outbox_unacked_total platform);
  let kv = Option.get (Platform.find_owner platform ~app:"t.kv" (Cell.cell "store" "bad")) in
  (match Platform.quarantined_messages platform ~bee:kv with
  | [ (_, reason) ] ->
    Alcotest.(check bool) "quarantine records the exception" true
      (String.length reason > 0)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 quarantined message, got %d" (List.length l)));
  (* The bee is not dead: healthy keys still apply. *)
  inject platform ~from:1 "fine";
  drain engine;
  Alcotest.(check (option int)) "bee still serves healthy traffic" (Some 1)
    (kv_count platform "fine")

(* A transiently-failing handler heals within the budget: the aborted
   attempts roll back cleanly and the successful retry applies the delta
   exactly once. *)
let test_transient_failure_retries_then_succeeds () =
  let engine, platform, attempts = make ~poison:"flaky" ~heal_after:2 () in
  inject platform ~from:0 "flaky";
  drain engine;
  Alcotest.(check int) "two aborted attempts plus the success" 3 !attempts;
  Alcotest.(check int) "only the aborts counted as faults" 2
    (Platform.handler_faults platform);
  Alcotest.(check (option int)) "applied exactly once after the retries" (Some 1)
    (kv_count platform "flaky");
  Alcotest.(check int) "nothing quarantined" 0 (Platform.total_quarantined platform);
  Alcotest.(check int) "entry acked" 0 (Platform.outbox_unacked_total platform)

(* A raising map function is a dispatch-boundary fault, not an engine
   crash: the message is dropped, the fault is counted, and the platform
   keeps processing. *)
let test_map_exception_contained () =
  let bad =
    App.create ~name:"t.badmap" ~dicts:[ "d" ]
      [
        App.handler ~kind:k_bad_map
          ~map:(fun msg ->
            match msg.Message.payload with
            | Bad_map _ -> failwith "map blew up"
            | _ -> Mapping.Drop)
          (fun _ _ -> ());
      ]
  in
  let engine = Engine.create () in
  let cfg =
    {
      (Platform.default_config ~n_hives:4) with
      Platform.durability = Some Beehive_store.Store.default_config;
    }
  in
  let platform = Platform.create engine cfg in
  let _, kv = kv_app () in
  Platform.register_app platform kv;
  Platform.register_app platform (fwd_app ());
  Platform.register_app platform bad;
  Platform.start platform;
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:k_bad_map (Bad_map "x");
  drain engine;
  Alcotest.(check bool) "map fault counted" true (Platform.handler_faults platform >= 1);
  inject platform ~from:1 "a";
  drain engine;
  Alcotest.(check (option int)) "platform still processes" (Some 1)
    (kv_count platform "a")

(* --- Merges and migrations -------------------------------------------- *)

(* The seed-81 regression: kv owners crash with un-fsynced deltas, then a
   whole-dict read from a live hive tries to merge them. A crashed owner
   must never win the merge (it would be resurrected `Active with its
   volatile state, skipping crash recovery), and a crashed loser folds
   its durable cut only — so the restart-time replay applies each put
   exactly once instead of doubling it. *)
let test_merge_with_crashed_owners_keeps_exactly_once () =
  let reader =
    App.handler ~kind:"outbox.read" ~map:(fun _ -> Mapping.whole_dict "store")
      (fun ctx _ -> Context.iter_dict ctx ~dict:"store" (fun _ _ -> ()))
  in
  let engine = Engine.create () in
  let cfg =
    {
      (Platform.default_config ~n_hives:4) with
      Platform.durability = Some Beehive_store.Store.default_config;
    }
  in
  let platform = Platform.create engine cfg in
  let attempts, _ = kv_app () in
  ignore attempts;
  let kv =
    let _, app = kv_app () in
    { app with App.handlers = app.App.handlers @ [ reader ] }
  in
  Platform.register_app platform kv;
  Platform.register_app platform (fwd_app ());
  Platform.start platform;
  inject platform ~from:3 "a";
  inject platform ~from:3 "b";
  (* Catch both kv deltas applied but possibly un-fsynced, then crash the
     hosting hive: marks pending in the dropped batch are gone. *)
  run_until_state engine ~step_us:25 ~limit_us:10_000 (fun () ->
      kv_count platform "a" = Some 1 && kv_count platform "b" = Some 1);
  let owner k = Option.get (Platform.find_owner platform ~app:"t.kv" (Cell.cell "store" k)) in
  let h = bee_hive platform (owner "a") in
  Platform.crash_hive platform h;
  (* A whole-dict read from a live hive: every store owner is crashed, so
     the merge must refuse rather than resurrect one as winner. *)
  Platform.inject platform ~from:(Channels.Hive ((h + 1) mod 4)) ~kind:"outbox.read"
    (Bad_map "read");
  drain engine;
  Channels.heal_all (Platform.channels platform);
  for i = 0 to 3 do
    if Platform.hive_crashed platform i then Platform.restart_hive platform i
  done;
  drain engine;
  Alcotest.(check (option int)) "a applied exactly once across the crash" (Some 1)
    (kv_count platform "a");
  Alcotest.(check (option int)) "b applied exactly once across the crash" (Some 1)
    (kv_count platform "b");
  Alcotest.(check int) "all entries re-acked" 0 (Platform.outbox_unacked_total platform);
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* A merge carries the loser's inbox marks into the winner's log, but
   those marks were acked under the loser: carrying them sends no ack. An
   ack with the winner as receiver would charge the fabric 16 B per mark
   and could retire a two-leg entry before its real receiver applied it.
   The senders sit on hive 1 and the kv bees on hives 2 and 3, so any
   ack the merge sent would show on the links into hive 1. *)
let test_merge_carries_acked_marks_without_acks () =
  let reader =
    App.handler ~kind:"outbox.read" ~map:(fun _ -> Mapping.whole_dict "store")
      (fun ctx _ -> Context.iter_dict ctx ~dict:"store" (fun _ _ -> ()))
  in
  let engine = Engine.create () in
  let cfg =
    {
      (Platform.default_config ~n_hives:4) with
      Platform.durability = Some Beehive_store.Store.default_config;
    }
  in
  let platform = Platform.create engine cfg in
  let _, kv = kv_app () in
  Platform.register_app platform { kv with App.handlers = kv.App.handlers @ [ reader ] };
  Platform.register_app platform (fwd_app ());
  Platform.start platform;
  List.iter (inject platform ~from:1) [ "a"; "b"; "a"; "b" ];
  drain engine;
  let owner k = Option.get (Platform.find_owner platform ~app:"t.kv" (Cell.cell "store" k)) in
  Alcotest.(check bool) "kv bee a moved to hive 2" true
    (Platform.migrate_bee platform ~bee:(owner "a") ~to_hive:2 ~reason:"test");
  Alcotest.(check bool) "kv bee b moved to hive 3" true
    (Platform.migrate_bee platform ~bee:(owner "b") ~to_hive:3 ~reason:"test");
  drain engine;
  Alcotest.(check int) "every entry acked before the merge" 0
    (Platform.outbox_unacked_total platform);
  let matrix = Channels.matrix (Platform.channels platform) in
  let into_senders () =
    Beehive_net.Traffic_matrix.bytes matrix ~src:2 ~dst:1
    +. Beehive_net.Traffic_matrix.bytes matrix ~src:3 ~dst:1
  in
  let before = into_senders () in
  Platform.inject platform ~from:(Channels.Hive 2) ~kind:"outbox.read" (Bad_map "read");
  drain engine;
  Alcotest.(check bool) "the kv bees merged" true (owner "a" = owner "b");
  Alcotest.(check (float 0.)) "no ack charged for the carried marks" before (into_senders ());
  (* The winner acks what it applies itself, and every entry retires. *)
  List.iter (inject platform ~from:1) [ "a"; "b" ];
  drain engine;
  Alcotest.(check (option int)) "a applied exactly once per put" (Some 3) (kv_count platform "a");
  Alcotest.(check (option int)) "b applied exactly once per put" (Some 3) (kv_count platform "b");
  Alcotest.(check int) "entries retire on the winner's own acks" 0
    (Platform.outbox_unacked_total platform)

(* Un-acked outbox entries follow their sender through a migration: the
   replay dispatches from the bee's new hive and still lands exactly
   once. *)
let test_outbox_survives_sender_migration () =
  let engine, platform, _ = make () in
  inject platform ~from:0 "a";
  run_until_state engine ~step_us:25 ~limit_us:10_000 (fun () ->
      kv_count platform "a" = Some 1);
  Platform.flush_durability platform;
  drain engine;
  (* Split the pipeline across hives so crashing the kv side leaves the
     fwd sender alive and migratable. *)
  let kv = Option.get (Platform.find_owner platform ~app:"t.kv" (Cell.cell "store" "a")) in
  let fwd = Option.get (Platform.find_owner platform ~app:"t.fwd" (Cell.cell "journal" "a")) in
  let fwd_home = bee_hive platform fwd in
  let kv_dst = (fwd_home + 1) mod 4 in
  Alcotest.(check bool) "kv bee migrated away" true
    (Platform.migrate_bee platform ~bee:kv ~to_hive:kv_dst ~reason:"test");
  drain engine;
  inject platform ~from:fwd_home "a";
  run_until_state engine ~step_us:25 ~limit_us:10_000 (fun () ->
      kv_count platform "a" = Some 2);
  (* Crash the receiver before its fsync: the second put's entry stays
     un-acked at the sender. *)
  Platform.crash_hive platform (bee_hive platform kv);
  (* Migrate the sender while its entry is awaiting replay. *)
  let fwd_dst = List.find (fun h -> Platform.hive_alive platform h && h <> fwd_home) [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "fwd bee migrated mid-replay" true
    (Platform.migrate_bee platform ~bee:fwd ~to_hive:fwd_dst ~reason:"test");
  drain engine;
  Channels.heal_all (Platform.channels platform);
  for i = 0 to 3 do
    if Platform.hive_crashed platform i then Platform.restart_hive platform i
  done;
  drain engine;
  Alcotest.(check (option int)) "replay from the new hive applied exactly once"
    (Some 2) (kv_count platform "a");
  Alcotest.(check int) "entry acked after replay" 0
    (Platform.outbox_unacked_total platform)

(* A replicated sender's un-acked entries ride its Raft commits: when
   the sender's hive dies while an entry awaits its ack, the failover
   re-seeds the new primary's outbox from the surviving replica and the
   replay still lands exactly once. *)
let test_replicated_sender_fails_over_with_unacked_entry () =
  let engine = Engine.create () in
  let cfg =
    {
      (Platform.default_config ~n_hives:4) with
      Platform.durability = Some Beehive_store.Store.default_config;
    }
  in
  let platform = Platform.create engine cfg in
  let _, kv = kv_app () in
  Platform.register_app platform kv;
  Platform.register_app platform { (fwd_app ()) with App.replicated = true };
  ignore (Beehive_core.Raft_replication.install platform ());
  Platform.start platform;
  drain engine;
  drain engine;  (* let the group leaders elect *)
  inject platform ~from:0 "a";
  drain engine;
  let fwd = Option.get (Platform.find_owner platform ~app:"t.fwd" (Cell.cell "journal" "a")) in
  let kv = Option.get (Platform.find_owner platform ~app:"t.kv" (Cell.cell "store" "a")) in
  let fwd_home = bee_hive platform fwd in
  let kv_home = (fwd_home + 2) mod 4 in
  Alcotest.(check bool) "kv bee migrated away" true
    (Platform.migrate_bee platform ~bee:kv ~to_hive:kv_home ~reason:"test");
  drain engine;
  (* With the receiver down, the second put's entry cannot be acked; the
     sender's commit (journal write and entry) replicates meanwhile. *)
  Platform.crash_hive platform kv_home;
  inject platform ~from:fwd_home "a";
  drain engine;
  Alcotest.(check (option int)) "second put journaled" (Some 2) (journal_count platform "a");
  Alcotest.(check bool) "entry un-acked at the failure" true
    (Platform.outbox_unacked_total platform > 0);
  Platform.fail_hive platform fwd_home;
  Alcotest.(check bool) "sender failed over" true
    (Platform.hive_alive platform (bee_hive platform fwd)
    && (Option.get (Platform.bee_view platform fwd)).Platform.view_alive);
  Platform.restart_hive platform kv_home;
  drain engine;
  drain engine;
  Alcotest.(check (option int)) "journal recovered from the replica" (Some 2)
    (journal_count platform "a");
  Alcotest.(check (option int)) "replayed entry applied exactly once" (Some 2)
    (kv_count platform "a");
  Alcotest.(check int) "outbox drained" 0 (Platform.outbox_unacked_total platform)

(* The ledger's ack rule on its own: an entry that must reach two
   receivers retires only once two distinct receivers have acked it, a
   repeated ack from one receiver counts once, and the rule holds
   whether the acks arrive before or after the dispatch records its
   legs. *)
let test_entry_retires_on_distinct_acks () =
  let entry seq =
    Outbox.emit ~sender:1 ~seq
      (Message.make ~kind:k_apply ~src:Message.From_system ~sent_at:Simtime.zero (Apply "k"))
  in
  let check = Alcotest.(check bool) in
  let e = entry 1 in
  check "legs recorded, no acks" false (Outbox.set_required e 2);
  check "first receiver" false (Outbox.ack e ~receiver:7);
  check "first receiver again" false (Outbox.ack e ~receiver:7);
  check "second receiver" true (Outbox.ack e ~receiver:8);
  let e = entry 2 in
  check "ack before any dispatch" false (Outbox.ack e ~receiver:7);
  check "duplicate before any dispatch" false (Outbox.ack e ~receiver:7);
  check "legs recorded after one distinct ack" false (Outbox.set_required e 2);
  check "second receiver after the legs" true (Outbox.ack e ~receiver:8);
  let e = entry 3 in
  check "early ack" false (Outbox.ack e ~receiver:7);
  check "second early ack" false (Outbox.ack e ~receiver:8);
  check "legs already covered" true (Outbox.set_required e 2);
  check "zero legs" true (Outbox.set_required (entry 4) 0);
  (* The first acker is kept in an int: one Cells leg's ack conses
     nothing. *)
  let e = entry 5 in
  check "one leg" false (Outbox.set_required e 1);
  let acked = ref false in
  Alcotest.(check (float 0.)) "the first ack allocates nothing" 0.
    (Helpers.minor_words_of (fun () -> acked := Outbox.ack e ~receiver:7));
  check "and retires the one leg" true !acked

(* The reference semantics: the ledger the store's outbox replaced —
   one table keyed by the [(sender, seq)] pair, with a durable flag per
   entry — kept as the oracle the property below compares against. *)
module Oracle = struct
  type entry = {
    sender : int;
    seq : int;
    msg : Message.t;
    mutable required : int;
    mutable ackers : int list;
    mutable n_ackers : int;
    mutable attempts : int;
    mutable last_attempt : Simtime.t;
    mutable durable : bool;
  }

  type t = { entries : (int * int, entry) Hashtbl.t }

  let create () = { entries = Hashtbl.create 64 }

  let add t ~sender ~seq ~durable msg =
    Hashtbl.replace t.entries (sender, seq)
      {
        sender;
        seq;
        msg;
        required = -1;
        ackers = [];
        n_ackers = 0;
        attempts = 0;
        last_attempt = Simtime.zero;
        durable;
      }

  let find t ~sender ~seq = Hashtbl.find_opt t.entries (sender, seq)
  let remove t e = Hashtbl.remove t.entries (e.sender, e.seq)
  let unacked t = Hashtbl.length t.entries

  let drop_sender t sender =
    let stale =
      Hashtbl.fold
        (fun ((s, _) as key) _ acc -> if s = sender then key :: acc else acc)
        t.entries []
    in
    List.iter (Hashtbl.remove t.entries) (List.sort compare stale)

  let reseed t ~sender ~durable emits =
    drop_sender t sender;
    List.iter (fun (seq, m) -> add t ~sender ~seq ~durable m) emits

  let drop_undurable t ~sent_from =
    let doomed =
      Hashtbl.fold
        (fun key e acc -> if (not e.durable) && sent_from e.sender then key :: acc else acc)
        t.entries []
    in
    List.iter (Hashtbl.remove t.entries) (List.sort compare doomed)

  (* Marks every pending entry durable and returns their keys, sorted. *)
  let commit t =
    Hashtbl.fold
      (fun key e acc ->
        if e.durable then acc
        else begin
          e.durable <- true;
          key :: acc
        end)
      t.entries []
    |> List.sort compare

  let start_attempt e ~now =
    e.attempts <- e.attempts + 1;
    e.last_attempt <- now

  let set_required e legs =
    e.required <- legs;
    e.n_ackers >= legs

  let ack e ~receiver =
    if not (List.mem receiver e.ackers) then begin
      e.ackers <- receiver :: e.ackers;
      e.n_ackers <- e.n_ackers + 1
    end;
    e.required >= 0 && e.n_ackers >= e.required

  let still_due t e ~since =
    match find t ~sender:e.sender ~seq:e.seq with
    | Some e' -> e' == e && e.durable && Simtime.equal e.last_attempt since
    | None -> false
end

(* One outbox operation over three senders, each appending from a fixed
   hive ([sender mod 2]). [Append] takes the sender's next seq, as a
   commit does; [Keep] holds on to an entry of each side so [Still_due]
   can ask about it after later operations removed or replaced it.
   Dispatch-side operations follow the platform's rules: only a durable
   entry is attempted or retired, and only an attempted one has a replay
   timer to ask [still_due]. *)
type ledger_op =
  | Append of int
  | Commit
  | Crash of int
  | Attempt of int * int * int
  | Legs of int * int * int
  | Ack of int * int * int
  | Retire of int * int
  | Forget of int
  | Reseed of int * int list * bool
  | Keep of int * int
  | Still_due of bool

let n_senders = 3
let n_seqs = 6
let hive_of sender = sender mod 2

let print_ledger_op = function
  | Append s -> Printf.sprintf "append %d" s
  | Commit -> "commit"
  | Crash h -> Printf.sprintf "crash hive %d" h
  | Attempt (s, q, at) -> Printf.sprintf "attempt %d/%d at %d us" s q at
  | Legs (s, q, n) -> Printf.sprintf "set_required %d/%d %d" s q n
  | Ack (s, q, r) -> Printf.sprintf "ack %d/%d from %d" s q r
  | Retire (s, q) -> Printf.sprintf "retire %d/%d" s q
  | Forget s -> Printf.sprintf "forget %d" s
  | Reseed (s, qs, durable) ->
    Printf.sprintf "reseed %d [%s] %s" s
      (String.concat ";" (List.map string_of_int qs))
      (if durable then "from a peer" else "by failover")
  | Keep (s, q) -> Printf.sprintf "keep %d/%d" s q
  | Still_due same -> Printf.sprintf "still_due since=%s" (if same then "last" else "other")

let ledger_op_gen =
  let open QCheck.Gen in
  let sender = int_bound (n_senders - 1) and seq = int_range 1 n_seqs in
  frequency
    [
      (4, map (fun s -> Append s) sender);
      (3, return Commit);
      (1, map (fun h -> Crash h) (int_bound 1));
      (2, map3 (fun s q at -> Attempt (s, q, at)) sender seq (int_bound 3));
      (2, map3 (fun s q n -> Legs (s, q, n)) sender seq (int_bound 2));
      (3, map3 (fun s q r -> Ack (s, q, r)) sender seq (int_bound 2));
      (2, map2 (fun s q -> Retire (s, q)) sender seq);
      (1, map (fun s -> Forget s) sender);
      ( 1,
        map3
          (fun s qs durable -> Reseed (s, List.sort_uniq compare qs, durable))
          sender (list_size (int_bound 2) seq) bool );
      (1, map2 (fun s q -> Keep (s, q)) sender seq);
      (2, map (fun same -> Still_due same) bool);
    ]

let prop_ledger_matches_oracle =
  QCheck.Test.make ~name:"outbox ledger agrees with the (sender, seq)-keyed oracle"
    ~count:500
    (QCheck.make ~print:QCheck.Print.(list print_ledger_op) QCheck.Gen.(list ledger_op_gen))
    (fun ops ->
      let engine = Engine.create () in
      let handed = ref [] in
      let real =
        Store.create engine
          ~size_of:(fun (d, k, _) -> String.length d + String.length k)
          ~seq:Outbox.seq ~bytes:Outbox.bytes
          ~on_durable:(fun ~hive:_ ~acks:_ rows ->
            handed := !handed @ List.init (Store.Rows.length rows) (Store.Rows.get rows))
          ()
      in
      let model = Oracle.create () in
      let kept = ref None in
      let fail what op =
        QCheck.Test.fail_reportf "%s differ after %s" what (print_ledger_op op)
      in
      let message s q =
        Message.make ~kind:k_apply ~src:Message.From_system ~sent_at:Simtime.zero
          (Apply (Printf.sprintf "%d/%d" s q))
      in
      let find s q =
        match Store.outbox_entry real ~bee:s ~seq:q with
        | e -> Some e
        | exception Not_found -> None
      in
      let both s q f =
        match (find s q, Oracle.find model ~sender:s ~seq:q) with
        | Some e, Some e' -> f e e'
        | None, None -> ()
        | Some _, None | None, Some _ -> QCheck.Test.fail_reportf "find %d/%d differs" s q
      in
      let durable f e e' = if e'.Oracle.durable then f e e' in
      let step op =
        match op with
        | Append s ->
          let q = Store.alloc_out_seqs real ~bee:s 1 in
          let m = message s q in
          Store.append real ~bee:s ~hive:(hive_of s)
            ~outbox:[ Outbox.emit ~sender:s ~seq:q m ] ~inbox:[] ~consumed:Mark.none [];
          Oracle.add model ~sender:s ~seq:q ~durable:false m
        | Commit ->
          handed := [];
          Store.flush real;
          let keys = List.map (fun e -> (Outbox.sender e, Outbox.seq e)) !handed in
          (* Hive order, then sender, then seq: sorted, as each sender
             appends from one hive. *)
          let by_hive = List.stable_sort (fun (a, _) (b, _) -> compare (hive_of a) (hive_of b)) in
          if keys <> by_hive (Oracle.commit model) then fail "newly durable entries" op
        | Crash h ->
          Store.drop_pending real ~hive:h;
          Oracle.drop_undurable model ~sent_from:(fun s -> hive_of s = h)
        | Attempt (s, q, at) ->
          let now = Simtime.of_us at in
          both s q
            (durable (fun e e' ->
                 Outbox.start_attempt e ~now;
                 Oracle.start_attempt e' ~now))
        | Legs (s, q, n) ->
          both s q (fun e e' ->
              if Outbox.set_required e n <> Oracle.set_required e' n then
                fail "set_required" op)
        | Ack (s, q, receiver) ->
          both s q (fun e e' ->
              if Outbox.ack e ~receiver <> Oracle.ack e' ~receiver then fail "ack" op)
        | Retire (s, q) ->
          both s q
            (durable (fun _ e' ->
                 Store.ack_outbox real ~bee:s ~seq:q;
                 Oracle.remove model e'))
        | Forget s ->
          Store.forget real ~bee:s;
          Oracle.drop_sender model s
        | Reseed (s, qs, from_peer) ->
          let emits = List.map (fun q -> (q, message s q)) qs in
          let rows = List.map (fun (q, m) -> Outbox.emit ~sender:s ~seq:q m) emits in
          if from_peer then
            Store.reseed real ~bee:s ~entries:[] ~outbox:rows ~inbox:[]
          else begin
            Store.forget real ~bee:s;
            Store.append real ~bee:s ~hive:(hive_of s) ~outbox:rows ~inbox:[] ~consumed:Mark.none []
          end;
          Oracle.reseed model ~sender:s ~durable:from_peer emits
        | Keep (s, q) -> both s q (fun e e' -> kept := Some (e, e'))
        | Still_due same -> (
          match !kept with
          | Some (e, e') when Outbox.attempted e ->
            (* A recheck armed at the latest attempt is fresh; one armed
               at another instant is not. *)
            let since = if same then Outbox.last_attempt e else Simtime.of_us 99 in
            let due =
              match find (Outbox.sender e) (Outbox.seq e) with
              | Some current -> Outbox.still_due e ~current ~fresh:same
              | None -> false
            in
            if due <> Oracle.still_due model e' ~since then fail "still_due" op
          | Some _ | None -> ())
      in
      List.iter
        (fun op ->
          step op;
          if Store.outbox_total real <> Oracle.unacked model then
            fail "unacked" op;
          for s = 0 to n_senders - 1 do
            for q = 1 to n_seqs do
              both s q (fun e e' ->
                  if
                    Outbox.sender e <> e'.Oracle.sender
                    || Outbox.seq e <> e'.Oracle.seq
                    || Outbox.msg e != e'.Oracle.msg
                    || Outbox.attempted e <> (e'.Oracle.attempts > 0)
                    || not (Simtime.equal (Outbox.last_attempt e) e'.Oracle.last_attempt)
                  then fail (Printf.sprintf "entry %d/%d" s q) op)
            done;
            let durable_keys =
              List.map Outbox.seq (Store.outbox_unacked real ~bee:s)
            in
            let oracle_keys =
              Hashtbl.fold
                (fun (s', q) e' acc -> if s' = s && e'.Oracle.durable then q :: acc else acc)
                model.Oracle.entries []
              |> List.sort compare
            in
            if durable_keys <> oracle_keys then fail (Printf.sprintf "durable entries of %d" s) op
          done)
        ops;
      true)

(* --- Rechecks ------------------------------------------------------- *)

(* The fwd bee's one outbox entry for key [key], once it is durable and
   dispatched: an entry is dispatched in the event that makes it
   durable. Steps 1 us at a time. *)
let await_dispatched engine platform key =
  let store = Option.get (Platform.store platform) in
  let entry () =
    match Platform.find_owner platform ~app:"t.fwd" (Cell.cell "journal" key) with
    | Some fwd -> (
      match Store.outbox_unacked store ~bee:fwd with [ e ] -> Some e | _ -> None)
    | None -> None
  in
  run_until_state engine ~step_us:1 ~limit_us:10_000 (fun () -> Option.is_some (entry ()));
  Option.get (entry ())

(* A lost ack: the kv owner applies the pong and acks it, but the
   fabric between the two hives is cut before the ack can leave. The
   entry is re-dispatched from its recheck at its backoff, 2 ms doubling
   to a 16 ms cap after each attempt, and, once the link heals, the
   receiver dedups the replays and its re-ack retires the entry. *)
let test_lost_ack_redispatch_times () =
  let engine, platform, _ = make () in
  let chans = Platform.channels platform in
  (* The kv owner lives on hive 1, the fwd owner on hive 0. *)
  Platform.inject platform ~from:(Channels.Hive 1) ~kind:k_apply (Apply "a");
  drain engine;
  inject platform ~from:0 "a";
  let e = await_dispatched engine platform "a" in
  let kv = Option.get (Platform.find_owner platform ~app:"t.kv" (Cell.cell "store" "a")) in
  let fwd = Option.get (Platform.find_owner platform ~app:"t.fwd" (Cell.cell "journal" "a")) in
  Alcotest.(check (pair int int)) "owners' hives" (0, 1)
    (bee_hive platform fwd, bee_hive platform kv);
  run_until_state engine ~step_us:1 ~limit_us:10_000 (fun () -> kv_count platform "a" = Some 2);
  Channels.partition chans ~a:0 ~b:1;
  let first = Outbox.last_attempt e in
  let attempts = ref [ first ] in
  let horizon = Simtime.add first (Simtime.of_ms 50) in
  while Simtime.(Engine.now engine < horizon) do
    Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_us 10));
    if not (Simtime.equal (Outbox.last_attempt e) (List.hd !attempts)) then
      attempts := Outbox.last_attempt e :: !attempts
  done;
  let rec gaps = function
    | later :: (earlier :: _ as rest) -> (Simtime.to_us later - Simtime.to_us earlier) :: gaps rest
    | [ _ ] | [] -> []
  in
  Alcotest.(check (list int)) "re-dispatched 2, 4, 8, 16 and 16 ms apart"
    [ 2_000; 4_000; 8_000; 16_000; 16_000 ] (List.rev (gaps !attempts));
  Alcotest.(check int) "still un-acked" 1 (Platform.outbox_unacked_total platform);
  Channels.heal_all chans;
  drain engine;
  Alcotest.(check int) "retired by a re-ack" 0 (Platform.outbox_unacked_total platform);
  Alcotest.(check (option int)) "applied exactly once" (Some 2) (kv_count platform "a")

(* The recheck an entry armed at its first dispatch still fires after
   the ack retired the entry, 2 ms later, and dispatches nothing: it is
   the one event at that instant, and the entry keeps its one attempt. *)
let test_retired_entry_recheck_is_a_noop () =
  let engine, platform, _ = make () in
  inject platform ~from:0 "a";
  let e = await_dispatched engine platform "a" in
  let first = Outbox.last_attempt e in
  run_until_state engine ~step_us:1 ~limit_us:2_000 (fun () ->
      Platform.outbox_unacked_total platform = 0);
  let due = Simtime.add first (Outbox.backoff e) in
  Alcotest.(check int) "due 2 ms after the dispatch" 2_000
    (Simtime.to_us due - Simtime.to_us first);
  Engine.run_until engine (Simtime.of_us (Simtime.to_us due - 1));
  let events = Engine.events_executed engine in
  let sent = Beehive_net.Transport.sent (Platform.transport platform) in
  let dups = List.assoc "outbox.dups_suppressed" (Platform.gauges platform) in
  Engine.run_until engine due;
  Alcotest.(check int) "the recheck ran" (events + 1) (Engine.events_executed engine);
  drain engine;
  Alcotest.(check bool) "no new attempt" true (Simtime.equal first (Outbox.last_attempt e));
  Alcotest.(check int) "nothing sent" sent
    (Beehive_net.Transport.sent (Platform.transport platform));
  Alcotest.(check int) "no duplicate arrived" dups
    (List.assoc "outbox.dups_suppressed" (Platform.gauges platform));
  Alcotest.(check (option int)) "applied once" (Some 1) (kv_count platform "a")

type recheck_op = Attempt | Arm | Advance of int

let print_recheck_op = function
  | Attempt -> "attempt"
  | Arm -> "arm"
  | Advance us -> Printf.sprintf "advance %d us" us

(* Rechecks ride a lane and carry no attempt time: each is taken in the
   order it was armed and judged by two counts on the entry. This runs
   them beside the timers they replaced, each of which kept the time of
   the attempt that armed it and fired only if the entry's latest
   attempt was still at that time. Each pair is scheduled at the same
   instant back to back, so the two run in turn and must agree, also
   when attempts share an instant and when a recheck is armed with no
   new attempt (a down sender's). *)
let prop_rechecks_match_since_timers =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, return Attempt);
          (2, return Arm);
          (2, return (Advance 0));
          (4, map (fun us -> Advance us) (oneofl [ 1; 1_000; 2_000; 4_000; 8_000; 16_000 ]));
          (2, map (fun us -> Advance us) (int_bound 40_000));
        ])
  in
  QCheck.Test.make ~name:"lane rechecks agree with since-carrying timers" ~count:500
    QCheck.(make ~print:Print.(list print_recheck_op) Gen.(list op_gen))
    (fun ops ->
      let engine = Engine.create () in
      let msg = Message.make ~kind:k_apply ~src:Message.From_system ~sent_at:Simtime.zero (Apply "k") in
      let e = Outbox.emit ~sender:0 ~seq:1 msg in
      let by_lane = ref [] and by_timer = ref [] in
      let lane = Engine.lane engine (fun e -> by_lane := Outbox.take_recheck e :: !by_lane) in
      let arm () =
        let since = Outbox.last_attempt e and delay = Outbox.backoff e in
        ignore
          (Engine.schedule_after engine delay (fun () ->
               by_timer := Simtime.equal (Outbox.last_attempt e) since :: !by_timer));
        Outbox.arm_recheck e;
        Engine.post lane delay e
      in
      List.iter
        (function
          | Attempt ->
            Outbox.start_attempt e ~now:(Engine.now engine);
            arm ()
          | Arm -> if Outbox.attempted e then arm ()
          | Advance us ->
            Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_us us)))
        ops;
      Engine.run engine;
      if !by_lane <> !by_timer then QCheck.Test.fail_report "verdicts differ";
      true)

(* One sender alternating its emits between two receivers on other
   hives, while both links drop in and out, so deliveries and acks are
   lost and replayed. Each receiver sees every other seq of the sender,
   so its durable marks have gaps under any floor. Every put is still
   applied exactly once, every entry retires, and each receiver's inbox
   holds exactly the sender's marks it was sent. *)
type Message.payload += Alt

let test_alternating_receivers_lost_acks () =
  let engine = Engine.create () in
  let platform =
    Platform.create engine
      {
        (Platform.default_config ~n_hives:3) with
        Platform.durability = Some Store.default_config;
      }
  in
  let _, kv = kv_app () in
  Platform.register_app platform kv;
  Platform.register_app platform
    (App.create ~name:"t.alt" ~dicts:[ "alt" ]
       [
         App.handler ~kind:"outbox.alt"
           ~map:(fun _ -> Mapping.with_key "alt" "n")
           (fun ctx _ ->
             let n =
               match Context.get ctx ~dict:"alt" ~key:"n" with Some (Value.V_int n) -> n | _ -> 0
             in
             Context.set ctx ~dict:"alt" ~key:"n" (Value.V_int (n + 1));
             Context.emit ctx ~kind:k_apply (Apply (if n mod 2 = 0 then "r1" else "r2")));
       ]);
  Platform.start platform;
  (* The receivers live on hives 1 and 2, the sender on hive 0. *)
  Platform.inject platform ~from:(Channels.Hive 1) ~kind:k_apply (Apply "r1");
  Platform.inject platform ~from:(Channels.Hive 2) ~kind:k_apply (Apply "r2");
  drain engine;
  let chans = Platform.channels platform in
  let puts = 40 in
  for i = 0 to puts - 1 do
    Platform.inject platform ~from:(Channels.Hive 0) ~kind:"outbox.alt" Alt;
    for step = 0 to 9 do
      (* Each link is down for 300 us of every millisecond, at an
         offset that moves from put to put. *)
      let down = (step + i) mod 10 < 3 in
      if down then begin
        Channels.partition chans ~a:0 ~b:1;
        Channels.partition chans ~a:0 ~b:2
      end
      else Channels.heal_all chans;
      Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_us 100))
    done
  done;
  Channels.heal_all chans;
  drain engine;
  let owner app dict key = Option.get (Platform.find_owner platform ~app (Cell.cell dict key)) in
  let sender = owner "t.alt" "alt" "n" in
  let r1 = owner "t.kv" "store" "r1" and r2 = owner "t.kv" "store" "r2" in
  Alcotest.(check (list int)) "hives of sender and receivers" [ 0; 1; 2 ]
    (List.map (bee_hive platform) [ sender; r1; r2 ]);
  Alcotest.(check (pair (option int) (option int)))
    "every put applied exactly once"
    (Some (1 + (puts / 2)), Some (1 + (puts / 2)))
    (kv_count platform "r1", kv_count platform "r2");
  Alcotest.(check int) "every entry retired" 0 (Platform.outbox_unacked_total platform);
  Alcotest.(check bool) "replays were suppressed" true
    (List.assoc "outbox.dups_suppressed" (Platform.gauges platform) > 0);
  let store = Option.get (Platform.store platform) in
  let from_sender bee =
    List.filter_map
      (fun m -> if Mark.sender m = sender then Some (Mark.seq m) else None)
      (Store.inbox_marks store ~bee)
  in
  let seqs parity = List.filter (fun q -> q mod 2 = parity) (List.init puts (fun i -> i + 1)) in
  Alcotest.(check (list int)) "r1's marks: the odd seqs" (seqs 1) (from_sender r1);
  Alcotest.(check (list int)) "r2's marks: the even seqs" (seqs 0) (from_sender r2)

let suite =
  [
    ( "outbox",
      [
        Alcotest.test_case "healthy pipeline is exactly-once" `Quick
          test_healthy_pipeline_exactly_once;
        Alcotest.test_case "crash before fsync loses delta+emit atomically" `Quick
          test_crash_before_fsync_loses_both_atomically;
        Alcotest.test_case "crash after fsync replays exactly once" `Quick
          test_crash_after_fsync_replays_exactly_once;
        Alcotest.test_case "receiver restart dedups the replay" `Quick
          test_receiver_restart_dedups_replay;
        Alcotest.test_case "a torn record's emit is not replayed" `Quick
          test_torn_record_emit_not_replayed;
        Alcotest.test_case "a crash erases the deliveries queued in memory" `Quick
          test_crash_erases_queued_delivery;
        Alcotest.test_case "poison quarantined after retry budget" `Quick
          test_poison_quarantined_after_budget;
        Alcotest.test_case "transient failure retries then succeeds" `Quick
          test_transient_failure_retries_then_succeeds;
        Alcotest.test_case "map exception contained" `Quick test_map_exception_contained;
        Alcotest.test_case "merge with crashed owners stays exactly-once" `Quick
          test_merge_with_crashed_owners_keeps_exactly_once;
        Alcotest.test_case "a merge sends no ack for the marks it carries" `Quick
          test_merge_carries_acked_marks_without_acks;
        Alcotest.test_case "outbox survives sender migration" `Quick
          test_outbox_survives_sender_migration;
        Alcotest.test_case "replicated sender fails over with un-acked entry" `Quick
          test_replicated_sender_fails_over_with_unacked_entry;
        Alcotest.test_case "an entry retires on acks from distinct receivers" `Quick
          test_entry_retires_on_distinct_acks;
        QCheck_alcotest.to_alcotest prop_ledger_matches_oracle;
        Alcotest.test_case "a lost ack re-dispatches at 2, 4, 8, 16, 16 ms" `Quick
          test_lost_ack_redispatch_times;
        Alcotest.test_case "a retired entry's recheck dispatches nothing" `Quick
          test_retired_entry_recheck_is_a_noop;
        QCheck_alcotest.to_alcotest prop_rechecks_match_since_timers;
        Alcotest.test_case "alternating receivers with lost acks stay exactly-once" `Quick
          test_alternating_receivers_lost_acks;
      ] );
  ]
