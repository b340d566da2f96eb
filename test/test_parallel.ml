(* Deterministic multicore tick execution: the domain pool itself, the
   engine's sharded batches, the store's parallel group-commit encode,
   event-queue tombstone compaction, and — the end-to-end property the
   design rests on — bit-identical digests at pool widths 1 and 4 over
   nemesis corpus seeds of every fault profile. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Event_queue = Beehive_sim.Event_queue
module Pool = Beehive_sim.Domain_pool
module Rng = Beehive_sim.Rng
module Script = Beehive_check.Script
module Nemesis = Beehive_check.Nemesis
module Runner = Beehive_check.Runner
module Platform = Beehive_core.Platform
module Stats = Beehive_core.Stats
module Store = Beehive_store.Store

let reset_pool () = Pool.set_global_domains (Pool.env_domains ())

(* [at_width n f] runs [f] on a global pool of [n] lanes. *)
let at_width n f =
  Pool.set_global_domains n;
  f ()

(* --- The pool -------------------------------------------------------- *)

let test_pool_map () =
  let pool = Pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "three lanes" 3 (Pool.size pool);
      let r = Pool.map pool ~shards:10 (fun i -> i * i) in
      Alcotest.(check (array int))
        "results in shard order"
        (Array.init 10 (fun i -> i * i))
        r;
      let tasks = Pool.tasks_per_domain pool in
      Alcotest.(check int) "every shard executed" 10
        (Array.fold_left ( + ) 0 tasks);
      (* shard -> lane is [i mod size]: lane 0 owns shards 0,3,6,9. *)
      Alcotest.(check int) "lane 0's static share" 4 tasks.(0))

exception Boom of int

let test_pool_lowest_exception_wins () =
  let pool = Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let ran = Array.make 8 false in
      (match
         Pool.map pool ~shards:8 (fun i ->
             ran.(i) <- true;
             if i = 2 || i = 5 then raise (Boom i))
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n ->
        Alcotest.(check int) "lowest failing shard's exception" 2 n);
      Alcotest.(check bool)
        "every shard still ran despite the failures" true
        (Array.for_all Fun.id ran);
      (* A raising map must not wedge the pool. *)
      let r = Pool.map pool ~shards:5 (fun i -> i + 1) in
      Alcotest.(check (array int))
        "pool usable after the exception" [| 1; 2; 3; 4; 5 |] r)

let test_pool_shutdown () =
  let pool = Pool.create ~domains:4 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  let r = Pool.map pool ~shards:3 (fun i -> 2 * i) in
  Alcotest.(check (array int))
    "shut-down pool serves map inline" [| 0; 2; 4 |] r

(* --- Engine sharded batches ------------------------------------------ *)

(* The same sharded schedule at widths 1 and 4 must produce the same
   apply order, batch count and event count — the batched two-phase
   semantics is width-independent by construction. *)
let test_engine_batch_width_independent () =
  let run domains =
    let engine = at_width domains (Engine.create ~seed:5) in
    let log = ref [] in
    for i = 0 to 15 do
      ignore
        (Engine.schedule_sharded_after engine (Simtime.of_ms 1)
           ~shard:(i mod 4) (fun () ->
             let v = i * 10 in
             fun () -> log := (i, v) :: !log))
    done;
    ignore
      (Engine.schedule_after engine (Simtime.of_ms 2) (fun () ->
           log := (-1, 0) :: !log));
    Engine.run engine;
    (Engine.sharded_batches engine, Engine.sharded_events engine, List.rev !log)
  in
  let b1, e1, log1 = run 1 in
  let b4, e4, log4 = run 4 in
  reset_pool ();
  Alcotest.(check int) "one batch (same instant)" 1 b1;
  Alcotest.(check int) "16 sharded events" 16 e1;
  Alcotest.(check bool) "batch counters identical at width 4" true
    (b1 = b4 && e1 = e4);
  Alcotest.(check bool) "apply order identical at width 4" true (log1 = log4);
  Alcotest.(check (pair int int))
    "applies ran in scheduling order, thunk after the batch" (0, 0)
    ((fun l -> (fst (List.hd l), 0)) log1);
  Alcotest.(check bool) "plain thunk ran last" true
    (List.nth log1 16 = (-1, 0))

(* --- Event-queue compaction ------------------------------------------ *)

let test_event_queue_compaction () =
  let q = Event_queue.create () in
  let handles =
    Array.init 1024 (fun i -> Event_queue.push q (Simtime.of_us i) i)
  in
  (* Cancel two of every three events: once tombstones outnumber live
     entries the heap must compact in place. *)
  for i = 0 to 1023 do
    if i mod 3 <> 0 then ignore (Event_queue.cancel q handles.(i))
  done;
  Alcotest.(check bool) "live events remain" false (Event_queue.is_empty q);
  Alcotest.(check bool)
    (Printf.sprintf "physical size %d shrank below 1024"
       (Event_queue.physical_size q))
    true
    (Event_queue.physical_size q < 1024);
  (* Pop order of the survivors is unaffected. *)
  let popped = ref [] in
  while not (Event_queue.is_empty q) do
    popped := Event_queue.take q :: !popped
  done;
  Alcotest.(check (list int))
    "survivors pop in time order"
    (List.init 342 (fun i -> 3 * i))
    (List.rev !popped)

(* --- Store group commit ---------------------------------------------- *)

(* The WAL image is byte-identical whether frames were encoded serially
   (width 1) or fanned over the pool (width 4) — group commit folds in
   deterministic order either way. *)
let test_store_flush_width_independent () =
  let build domains =
    let engine = at_width domains (Engine.create ~seed:3) in
    let size_of (d, k, w) =
      String.length d + String.length k
      + match w with Some v -> String.length v | None -> 4
    in
    let store = Store.create engine ~size_of () in
    for round = 0 to 2 do
      for bee = 0 to 7 do
        for k = 0 to 3 do
          Store.append store ~bee ~hive:(bee mod 4)
            [
              ( "d",
                Printf.sprintf "k%d" k,
                if round = 2 && k = 3 then None
                else Some (Printf.sprintf "v%d-%d-%d" round bee k) );
            ]
        done
      done;
      Store.flush store
    done;
    Store.wal_image store
  in
  let serial = build 1 in
  let parallel = build 4 in
  reset_pool ();
  Alcotest.(check string) "WAL images byte-identical" serial parallel

(* --- End-to-end 1-vs-4 determinism over the corpus -------------------- *)

let profiles =
  [ Script.Durability; Script.Partition; Script.Elastic; Script.Disk ]

(* Every case is also a [seeds.corpus] line, so its width-1 digest is
   pinned in [behaviour.digests]: a change that alters simulated
   behaviour fails here even when it alters both widths alike. Re-pin
   from the file "seed corpus replays clean" prints. *)
let test_corpus_digest_1_vs_4 () =
  let cases =
    List.concat_map
      (fun profile -> List.map (fun seed -> (profile, seed)) [ 0; 1; 2 ])
      profiles
  in
  Alcotest.(check bool) "at least 10 corpus cases" true (List.length cases >= 10);
  let actual =
    List.map
      (fun (profile, seed) ->
        let digest n =
          snd (at_width n (fun () -> Runner.digest (Runner.make_cfg ~seed profile)))
        in
        let d1 = digest 1 in
        let d4 = digest 4 in
        let key =
          Printf.sprintf "%s %d 30" (Script.profile_to_string profile) seed
        in
        Alcotest.(check string) ("digest " ^ key ^ ": 1 domain = 4 domains") d1 d4;
        (key, d1))
      cases
  in
  reset_pool ();
  let pinned = Helpers.pinned ~section:"corpus" in
  List.iter
    (fun (key, d1) ->
      Alcotest.(check (option string))
        ("width-1 digest pinned for corpus " ^ key)
        (List.assoc_opt key pinned) (Some d1))
    actual

(* Explicit gauge equality (the digest covers gauges too, but a direct
   comparison localizes a regression to the stats layer). *)
let test_gauges_1_vs_4 () =
  let final_gauges domains =
    at_width domains @@ fun () ->
    let cfg = Runner.make_cfg ~seed:7 Script.Durability in
    let script =
      Nemesis.generate ~rng:(Rng.create 7) ~profile:Script.Durability
        ~n_hives:4 ~ticks:30
    in
    let captured = ref None in
    (match
       Runner.execute ~observe:(fun _ p -> captured := Some p) cfg script
     with
    | Runner.Pass _ -> ()
    | Runner.Fail v ->
      Alcotest.fail
        (Format.asprintf "seed unexpectedly failed: %a"
           Beehive_check.Monitor.pp_violation v));
    match !captured with
    | Some p -> Platform.gauges p
    | None -> Alcotest.fail "observe hook never ran"
  in
  let g1 = final_gauges 1 in
  let g4 = final_gauges 4 in
  reset_pool ();
  Alcotest.(check (list (pair string int))) "platform gauges identical" g1 g4

(* The sharded path actually engages under the check workload — without
   batched events the 1-vs-4 comparison would be vacuous. The check apps
   are shardable, so that holds whether or not the pool was resized. *)
let test_sharded_path_engages () =
  let engages label =
    let captured = ref None in
    (match
       Runner.execute
         ~observe:(fun e _ -> captured := Some e)
         (Runner.make_cfg ~seed:0 Script.Durability)
         (Nemesis.generate ~rng:(Rng.create 0) ~profile:Script.Durability
            ~n_hives:4 ~ticks:30)
     with
    | Runner.Pass _ -> ()
    | Runner.Fail _ -> Alcotest.fail (label ^ ": seed unexpectedly failed"));
    match !captured with
    | Some engine ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: sharded events executed (%d in %d batches)" label
           (Engine.sharded_events engine)
           (Engine.sharded_batches engine))
        true
        (Engine.sharded_events engine > 0 && Engine.sharded_batches engine > 0)
    | None -> Alcotest.fail "observe hook never ran"
  in
  at_width 4 (fun () -> engages "4 domains");
  reset_pool ();
  engages "pool untouched"

(* [App.shardable] alone decides: the Figure 4 ensemble (driver,
   decoupled TE, routing, discovery, instrumentation) opts out, so its
   completions never take the sharded path. *)
let test_non_shardable_stays_serial () =
  let module Scenario = Beehive_harness.Scenario in
  let sc =
    Scenario.build
      {
        Scenario.quick_config with
        Scenario.n_hives = 4;
        n_switches = 16;
        flows_per_switch = 5;
        flow_start_spread = 1.0;
        warmup = Simtime.of_sec 1.0;
        duration = Simtime.of_sec 1.0;
        te = Scenario.Te_decoupled;
      }
  in
  Scenario.run sc;
  let engine = Scenario.engine sc in
  Alcotest.(check bool) "messages processed" true
    (Platform.total_processed (Scenario.platform sc) > 0);
  Alcotest.(check int) "no sharded events" 0 (Engine.sharded_events engine)

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "pool: map results and lane shares" `Quick
          test_pool_map;
        Alcotest.test_case "pool: lowest shard's exception wins" `Quick
          test_pool_lowest_exception_wins;
        Alcotest.test_case "pool: shutdown is idempotent, then inline" `Quick
          test_pool_shutdown;
        Alcotest.test_case "engine: batches identical at widths 1 and 4" `Quick
          test_engine_batch_width_independent;
        Alcotest.test_case "event queue: cancel-heavy heap compacts" `Quick
          test_event_queue_compaction;
        Alcotest.test_case "store: flush byte-identical at widths 1 and 4"
          `Quick test_store_flush_width_independent;
        Alcotest.test_case "corpus: digests equal at widths 1 and 4" `Slow
          test_corpus_digest_1_vs_4;
        Alcotest.test_case "corpus: gauges equal at widths 1 and 4" `Quick
          test_gauges_1_vs_4;
        Alcotest.test_case "corpus: sharded path engages" `Quick
          test_sharded_path_engages;
        Alcotest.test_case "platform: non-shardable apps stay serial" `Quick
          test_non_shardable_stays_serial;
      ] );
  ]
