(* Benchmark and figure-regeneration harness: one table of sections
   behind one driver.

   - figures regenerates every panel of the paper's evaluation (Figure 4
     a-f) and verifies the qualitative shape claims.
   - optimizer, external-store and cluster-size are scenario-level
     ablations of the same TE cluster.
   - replication, durability, loss, outbox, integrity and elastic
     measure the extensions: the cost of Raft replication, snapshot
     recovery and crash/restart, link loss, the transactional outbox,
     storage integrity and elastic scale-out/in.

   Each section prints its table and returns whether its gated claims
   hold. The driver runs every section in table order, or only the one
   BEEHIVE_BENCH_ONLY names, then exits 1 naming each section that
   failed. It runs at a laptop-fast scale by default; set
   BEEHIVE_BENCH_FULL=1 for the paper's full 40-hive / 400-switch /
   60-second setup. *)

module Scenario = Beehive_harness.Scenario
module Fig4 = Beehive_harness.Fig4
module Summary = Beehive_harness.Summary
module Simtime = Beehive_sim.Simtime
module Engine = Beehive_sim.Engine
module P = Beehive_core.Platform
module Store = Beehive_store.Store
module Mark = Beehive_store.Mark

type Beehive_core.Message.payload += Bench_put of { bp_key : string; bp_size : int }

let full_scale = Sys.getenv_opt "BEEHIVE_BENCH_FULL" = Some "1"

let scenario_cfg =
  if full_scale then Scenario.default_config else Scenario.quick_config

(* A key-sharded app with one handler that stores each [Bench_put] as a
   [bp_size]-byte string under its key. *)
let put_app ?replicated ~name ~dict ~kind () =
  let module A = Beehive_core.App in
  A.create ~name ~dicts:[ dict ] ?replicated
    [
      A.handler ~kind
        ~map:(fun msg ->
          match msg.Beehive_core.Message.payload with
          | Bench_put { bp_key; _ } -> Beehive_core.Mapping.with_key dict bp_key
          | _ -> Beehive_core.Mapping.Drop)
        (fun ctx msg ->
          match msg.Beehive_core.Message.payload with
          | Bench_put { bp_key; bp_size } ->
            Beehive_core.Context.set ctx ~dict ~key:bp_key
              (Beehive_core.Value.V_string (String.make bp_size 'v'))
          | _ -> ());
    ]

(* The put load the platform ablations drive: every [period_ms], one
   [kind] put of [size tick] bytes per key k < [keys] (tick counts from 1),
   injected from hive (k + tick) mod [hives] when [rotate], else from
   k mod [hives], until [horizon_s] simulated seconds. *)
type load = {
  hives : int;
  durable : bool;
  keys : int;
  period_ms : int;
  kind : string;
  size : int -> int;
  rotate : bool;
  horizon_s : float;
}

let puts =
  {
    hives = 6;
    durable = false;
    keys = 12;
    period_ms = 100;
    kind = "bench.put";
    size = (fun _ -> 512);
    rotate = false;
    horizon_s = 10.0;
  }

(* Creates a platform on a fresh engine running [apps], with the
   [inject]ed bug if any, applies [prepare] to it before starting it, then
   drives [l] to its horizon. Returns the platform and the number of puts
   offered. *)
let run_load ?(prepare = ignore) ?inject l apps =
  let engine = Engine.create () in
  let durability = if l.durable then Some Store.default_config else None in
  let platform =
    P.create engine { (P.default_config ~n_hives:l.hives) with P.durability; inject }
  in
  List.iter (P.register_app platform) apps;
  prepare platform;
  P.start platform;
  let tick = ref 0 in
  let h =
    Engine.every engine (Simtime.of_ms l.period_ms) (fun () ->
        incr tick;
        for k = 0 to l.keys - 1 do
          P.inject platform
            ~from:(Beehive_net.Channels.Hive ((if l.rotate then k + !tick else k) mod l.hives))
            ~kind:l.kind
            (Bench_put { bp_key = Printf.sprintf "k%d" k; bp_size = l.size !tick })
        done)
  in
  Engine.run_until engine (Simtime.of_sec l.horizon_s);
  ignore (Engine.cancel engine h);
  (platform, !tick * l.keys)

(* ------------------------------------------------------------------ *)
(* Machine-readable baselines: BENCH_<name>.json                       *)
(* ------------------------------------------------------------------ *)

(* [--json] makes the headline sections also write one BENCH_<name>.json
   apiece — metric, value, unit and git revision — so CI can
   archive baselines and diff runs without scraping the tables. *)
let json_enabled = Array.exists (String.equal "--json") Sys.argv

let git_rev =
  lazy
    (match Sys.getenv_opt "GITHUB_SHA" with
    | Some sha -> sha
    | None -> (
      (* Best-effort: resolve .git/HEAD relative to the cwd. *)
      try
        let read_line path =
          let ic = open_in path in
          Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
        in
        let head = read_line ".git/HEAD" in
        match String.index_opt head ' ' with
        | Some i ->
          read_line
            (Filename.concat ".git"
               (String.sub head (i + 1) (String.length head - i - 1)))
        | None -> head
      with _ -> "unknown"))

(* [fields] are extra key/value pairs, values already JSON-encoded. *)
let write_bench_json ~name ~metric ~value ~unit_ fields =
  if json_enabled then begin
    let path = Printf.sprintf "BENCH_%s.json" name in
    let oc = open_out path in
    Printf.fprintf oc "{\n  \"bench\": %S,\n  \"metric\": %S,\n  \"value\": %s,\n"
      name metric value;
    Printf.fprintf oc "  \"unit\": %S,\n  \"git_rev\": %S" unit_ (Lazy.force git_rev);
    List.iter (fun (k, v) -> Printf.fprintf oc ",\n  %S: %s" k v) fields;
    output_string oc "\n}\n";
    close_out oc;
    Format.printf "wrote %s@." path
  end

(* ------------------------------------------------------------------ *)
(* Figure 4                                                            *)
(* ------------------------------------------------------------------ *)

let figures () =
  Format.printf "##### Figure 4 regeneration (%s scale) #####@.@."
    (if full_scale then "paper" else "quick");
  Fig4.report ~cfg:scenario_cfg Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Scenario ablations                                                  *)
(* ------------------------------------------------------------------ *)

let run_scenario cfg =
  let sc = Scenario.build cfg in
  Scenario.run sc;
  Summary.of_scenario sc

let ablation_optimizer () =
  Format.printf "##### Ablation: optimizer on/off under adversarial placement #####@.";
  Format.printf
    "%-12s %-10s %-12s %-12s %-12s@." "optimizer" "locality" "mean KB/s" "peak KB/s"
    "migrations";
  List.iter
    (fun optimize ->
      let s =
        run_scenario
          {
            scenario_cfg with
            Scenario.te = Scenario.Te_decoupled;
            optimize;
            adversarial_pin = true;
          }
      in
      Format.printf "%-12s %-10s %-12.1f %-12.1f %-12d@."
        (if optimize then "on" else "off")
        (Printf.sprintf "%.0f%%" (100.0 *. s.Summary.s_locality))
        s.Summary.s_mean_kbps s.Summary.s_peak_kbps s.Summary.s_migrations)
    [ false; true ];
  Format.printf "@.";
  true

let ablation_external_store () =
  (* Section 6 of the paper, measured: Beehive cells vs. an ONOS-style
     external key-value store holding the same TE state. State-access
     latency is per round trip to the store shard; cells access state
     in-process (charged as 0). *)
  Format.printf "##### Ablation: Beehive cells vs. external datastore (Section 6) #####@.";
  Format.printf "%-22s %-12s %-12s %-18s %-18s@." "state design" "mean KB/s" "peak KB/s"
    "state p50 us" "state p99 us";
  List.iter
    (fun (label, te) ->
      let cfg = { scenario_cfg with Scenario.te; optimize = false; adversarial_pin = false } in
      let sc = Scenario.build cfg in
      Scenario.run sc;
      let s = Summary.of_scenario sc in
      let p50, p99 =
        match Scenario.ext_store sc with
        | Some store ->
          ( Option.value ~default:0 (Beehive_core.Ext_store.rpc_latency_percentile store 0.5),
            Option.value ~default:0 (Beehive_core.Ext_store.rpc_latency_percentile store 0.99) )
        | None -> (0, 0)
      in
      Format.printf "%-22s %-12.1f %-12.1f %-18d %-18d@." label s.Summary.s_mean_kbps
        s.Summary.s_peak_kbps p50 p99)
    [ ("beehive cells", Scenario.Te_decoupled); ("external store", Scenario.Te_external) ];
  Format.printf "@.";
  true

let ablation_cluster_size () =
  Format.printf "##### Ablation: decoupled TE vs cluster size #####@.";
  Format.printf "%-8s %-10s %-10s %-12s %-12s@." "hives" "switches" "locality"
    "mean KB/s" "bees";
  let sizes = if full_scale then [ 10; 20; 40 ] else [ 4; 8; 16 ] in
  List.iter
    (fun n_hives ->
      let cfg =
        {
          scenario_cfg with
          Scenario.n_hives;
          n_switches = scenario_cfg.Scenario.n_switches;
          te = Scenario.Te_decoupled;
          optimize = false;
          adversarial_pin = false;
        }
      in
      let s = run_scenario cfg in
      Format.printf "%-8d %-10d %-10s %-12.1f %-12d@." n_hives
        cfg.Scenario.n_switches
        (Printf.sprintf "%.0f%%" (100.0 *. s.Summary.s_locality))
        s.Summary.s_mean_kbps s.Summary.s_live_bees)
    sizes;
  Format.printf "@.";
  true

(* ------------------------------------------------------------------ *)
(* Extension ablations                                                 *)
(* ------------------------------------------------------------------ *)

let ablation_replication () =
  (* Cost of fault tolerance: the same replicated key-value workload
     without replication and under Raft consensus — 12 keys spread over
     the hives, one 512-byte write per key per 100 ms, for 20 simulated
     seconds. *)
  Format.printf "##### Ablation: replication mode cost (fault-tolerance extension) #####@.";
  Format.printf "%-18s %-16s %-14s %-12s@." "mode" "inter-hive KB" "KB/s" "overhead";
  let run raft =
    let prepare p = if raft then ignore (Beehive_core.Raft_replication.install p ()) in
    let platform, _ =
      run_load ~prepare { puts with horizon_s = 20.0 }
        [ put_app ~replicated:true ~name:"bench.writer" ~dict:"store" ~kind:"bench.put" () ]
    in
    Beehive_net.Traffic_matrix.off_diagonal_bytes
      (Beehive_net.Channels.matrix (P.channels platform))
    /. 1024.0
  in
  let base = run false in
  List.iter
    (fun (label, raft) ->
      let kb = run raft in
      Format.printf "%-18s %-16.1f %-14.2f %-12s@." label kb (kb /. 20.0)
        (Printf.sprintf "%.1fx" (kb /. Float.max 0.001 base)))
    [ ("none", false); ("raft (3-node)", true) ];
  Format.printf "@.";
  true

let ablation_durability () =
  (* The storage engine's recovery claim, measured: a bee whose dictionary
     has seen many overwrites recovers from its latest snapshot plus a
     short WAL tail instead of replaying the whole log. Both stores hold
     the same 10k-entry dictionary written 3 times over; one never
     compacts (pure replay), the other compacts at the default 64 KiB
     threshold. Gated: both recover the same state, and a crashed hive's
     bees come back byte-identical. *)
  Format.printf "##### Ablation: durability — snapshot recovery vs full WAL replay #####@.";
  let n_entries = 10_000 in
  let rounds = 3 in
  let size_of (d, k, w) =
    String.length d + String.length k
    + match w with Some v -> String.length v | None -> 4
  in
  let build threshold =
    let engine = Engine.create () in
    let store =
      Store.create engine
        ~config:{ Store.snapshot_threshold_bytes = threshold }
        ~size_of ~seq:fst ~bytes:snd ()
    in
    for round = 0 to rounds - 1 do
      for k = 0 to n_entries - 1 do
        Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none
          [
            ( "store",
              Printf.sprintf "key-%05d" k,
              Some (String.make 64 (Char.chr (Char.code 'a' + (round mod 26)))) );
          ]
      done;
      Store.flush store
    done;
    store
  in
  let full = build max_int in
  let snap = build Store.default_config.Store.snapshot_threshold_bytes in
  Format.printf "%-18s %-9s %-16s %-12s %-12s %-10s@." "recovery mode" "entries"
    "records replayed" "bytes read" "ms/recover" "snapshots";
  let report label store =
    let recovered = Store.recover store ~bee:0 in
    let records, bytes = Store.recovery_cost store ~bee:0 in
    let reps = 20 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do ignore (Store.recover store ~bee:0) done;
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int reps in
    Format.printf "%-18s %-9d %-16d %-12d %-12.3f %-10d@." label (List.length recovered)
      records bytes ms
      (Store.snapshot_count store ~bee:0);
    recovered
  in
  let via_replay = report "full WAL replay" full in
  let via_snapshot = report "snapshot + tail" snap in
  let same_recovery = via_replay = via_snapshot in
  Format.printf "recovered states identical: %b@.@." same_recovery;
  (* Crash/restart round trip through the platform: fail a hive after a
     forced group commit, restart it, and check every bee's dictionary
     came back byte-identical from snapshot + WAL replay. *)
  let platform, _ =
    run_load { puts with durable = true }
      [ put_app ~name:"bench.writer" ~dict:"store" ~kind:"bench.put" () ]
  in
  let engine = P.engine platform in
  P.flush_durability platform;
  let victims =
    List.filter
      (fun v -> v.P.view_hive = 2 && not v.P.view_is_local)
      (P.live_bees platform)
  in
  let before =
    List.map (fun v -> (v.P.view_id, P.bee_state_entries platform v.P.view_id)) victims
  in
  P.fail_hive platform 2;
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 1.0));
  P.restart_hive platform 2;
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 1.0));
  let identical =
    List.for_all
      (fun (id, entries) -> P.bee_state_entries platform id = entries)
      before
  in
  Format.printf
    "crash/restart hive 2: %d bees, %d entries, byte-identical after restart: %b (fsyncs=%d)@.@."
    (List.length before)
    (List.fold_left (fun a (_, e) -> a + List.length e) 0 before)
    identical (P.total_fsyncs platform);
  same_recovery && identical

let ablation_loss () =
  (* Cost of reliability under a degrading fabric: the same cross-hive
     write workload at increasing link-loss rates. Delivered counts stay
     flat (the transport masks the loss) while tail latency and
     retransmit overhead grow with the loss rate; the overhead column is
     retransmitted bytes as a share of all inter-hive bytes. *)
  Format.printf "##### Ablation: link loss vs. delivery latency and retransmit overhead #####@.";
  Format.printf "%-8s %-11s %-10s %-10s %-10s %-13s %-10s %-9s@." "loss" "delivered"
    "p50 us" "p99 us" "p99.9 us" "retransmits" "overhead" "dropped";
  let module T = Beehive_net.Transport in
  let run loss =
    (* Rotate the injection hive so nearly every put crosses hives. *)
    let platform, _ =
      run_load
        ~prepare:(fun p -> Beehive_net.Channels.set_loss (P.channels p) loss)
        { puts with rotate = true }
        [ put_app ~name:"bench.writer" ~dict:"store" ~kind:"bench.put" () ]
    in
    let engine = P.engine platform in
    (* Heal and let in-flight retries land before reading the counters. *)
    Beehive_net.Channels.set_loss (P.channels platform) 0.0;
    Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 2.0));
    let tr = P.transport platform in
    let pct p = Option.value ~default:0 (P.message_latency_percentile platform p) in
    let total_bytes =
      Beehive_net.Traffic_matrix.off_diagonal_bytes
        (Beehive_net.Channels.matrix (P.channels platform))
    in
    Format.printf "%-8s %-11d %-10d %-10d %-10d %-13d %-10s %-9d@."
      (Printf.sprintf "%.1f%%" (loss *. 100.0))
      (T.delivered tr) (pct 0.5) (pct 0.99) (pct 0.999) (T.retransmits tr)
      (Printf.sprintf "%.2f%%"
         (100.0 *. float_of_int (T.retransmit_bytes tr) /. Float.max 1.0 total_bytes))
      (P.total_dropped platform)
  in
  List.iter run [ 0.0; 0.001; 0.01; 0.05 ];
  Format.printf "@.";
  true

(* The durable 96-key, 10 ms, 256-byte put load of the outbox and
   integrity ablations, drained after its horizon: a forced group commit,
   then 50 ms for the acks. *)
let durable_puts = { puts with durable = true; keys = 96; period_ms = 10; size = (fun _ -> 256) }

let drain_durable platform =
  let engine = P.engine platform in
  P.flush_durability platform;
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_ms 50))

let ablation_outbox () =
  (* Cost of exactly-once messaging on the healthy path: a
     journal-then-apply pipeline (a forwarder journals each put and emits
     it onward to a key-value owner in the same transaction) through the
     transactional outbox, which adds WAL records for emits and inbox
     marks, batched acks, and replay bookkeeping. The gated claims are
     deterministic in the simulation: every offered put is journaled and
     applied, and nothing is left un-acked at quiesce. The WAL, fabric,
     fsync and latency figures quantify the price of the guarantee; host
     wall-clock measures the simulator, not the system, and is reported
     for context only. *)
  Format.printf "##### Ablation: transactional outbox cost on the healthy path #####@.";
  let module A = Beehive_core.App in
  let fwd =
    A.create ~name:"bench.fwd" ~dicts:[ "journal" ]
      [
        A.handler ~kind:"bench.fwd"
          ~map:(fun msg ->
            match msg.Beehive_core.Message.payload with
            | Bench_put { bp_key; _ } ->
              Beehive_core.Mapping.with_key "journal" bp_key
            | _ -> Beehive_core.Mapping.Drop)
          (fun ctx msg ->
            match msg.Beehive_core.Message.payload with
            | Bench_put { bp_key; _ } as p ->
              Beehive_core.Context.update ctx ~dict:"journal" ~key:bp_key
                (function
                  | Some (Beehive_core.Value.V_int n) ->
                    Some (Beehive_core.Value.V_int (n + 1))
                  | _ -> Some (Beehive_core.Value.V_int 1));
              Beehive_core.Context.emit ctx ~kind:"bench.apply" p
            | _ -> ());
      ]
  in
  let t0 = Unix.gettimeofday () in
  let platform, offered =
    run_load { durable_puts with kind = "bench.fwd" }
      [ fwd; put_app ~name:"bench.kv" ~dict:"kv" ~kind:"bench.apply" () ]
  in
  drain_durable platform;
  let wall = Unix.gettimeofday () -. t0 in
  let processed = P.total_processed platform and fsyncs = P.total_fsyncs platform in
  let wal = Store.total_wal_bytes_written (Option.get (P.store platform)) in
  let net =
    Beehive_net.Traffic_matrix.off_diagonal_bytes
      (Beehive_net.Channels.matrix (P.channels platform))
  in
  let p99 = Option.value ~default:0 (P.message_latency_percentile platform 0.99) in
  let unacked = P.outbox_unacked_total platform in
  Format.printf "%-11s %-9s %-11s %-12s %-9s %-8s@." "processed" "fsyncs" "WAL KB"
    "net KB" "p99 us" "wall s";
  Format.printf "%-11d %-9d %-11.1f %-12.1f %-9d %-8.3f@." processed fsyncs
    (float_of_int wal /. 1024.0)
    (net /. 1024.0) p99 wall;
  (* Every offered put is handled twice: journaled by the forwarder, then
     applied by the key-value owner. *)
  let ok = processed = 2 * offered && unacked = 0 in
  let per_put x = x /. float_of_int offered in
  Format.printf
    "processed %d messages for %d offered puts (2 stages each); quantified \
     overheads: WAL %.1f B/put, fabric %.1f B/put, fsyncs %d, delivery p99 %d \
     us; un-acked at quiesce: %d — %s@.@."
    processed offered
    (per_put (float_of_int wal))
    (per_put net) fsyncs p99 unacked
    (if ok then "ok" else "FAIL");
  write_bench_json ~name:"outbox" ~metric:"wal_bytes_per_put"
    ~value:(Printf.sprintf "%.3f" (per_put (float_of_int wal)))
    ~unit_:"B"
    [ ("unacked_at_quiesce", string_of_int unacked) ];
  ok

let ablation_integrity () =
  (* Cost of end-to-end storage integrity on the healthy path. The frame
     layer adds a fixed 8-byte length+CRC32 envelope to every WAL record
     and keeps a background scrubber re-verifying cold bytes on a budget.
     Two gated claims, both deterministic in the simulation: the framing
     bytes stay within 5% of the durable log volume, and turning frame
     *verification* off (the injected checksums-off bug) changes nothing
     about the work done — same messages processed, same bytes logged.
     A sound frame holds no bytes: its image is built only when fault
     injection damages it or [Store.wal_image] prints it, so verification
     checksums damaged frames only, and on this healthy path it computes
     no CRC at all. Host wall-clock measures the simulator and is
     reported for context only; the scrub columns quantify what the 5 ms
     tick budget actually buys. *)
  Format.printf "##### Ablation: storage-integrity cost on the healthy path #####@.";
  let secs = durable_puts.horizon_s in
  let run verify =
    let t0 = Unix.gettimeofday () in
    let platform, _ =
      run_load
        ?inject:(if verify then None else Some P.Checksums_off)
        durable_puts
        [ put_app ~name:"bench.kv" ~dict:"kv" ~kind:"bench.put" () ]
    in
    drain_durable platform;
    let wall = Unix.gettimeofday () -. t0 in
    let s = Option.get (P.store platform) in
    ( wall,
      P.total_processed platform,
      Store.total_wal_bytes_written s,
      Store.total_wal_records_written s,
      Store.records_verified s,
      Store.scrubs_completed s )
  in
  let w_off, p_off, wal_off, rec_off, _, _ = run false in
  let w_on, p_on, wal_on, rec_on, verified_on, passes_on = run true in
  Format.printf "%-10s %-11s %-11s %-9s %-10s %-11s %-8s@." "verify" "processed"
    "WAL KB" "records" "verified" "scrub pass" "wall s";
  let row label p wal recs verified passes w =
    Format.printf "%-10s %-11d %-11.1f %-9d %-10d %-11d %-8.3f@." label p
      (float_of_int wal /. 1024.0)
      recs verified passes w
  in
  row "off" p_off wal_off rec_off 0 0 w_off;
  row "on" p_on wal_on rec_on verified_on passes_on w_on;
  (* Deterministic framing share: 8 bytes per committed record, counted
     against everything the WAL wrote (the gated <= 5% claim). *)
  let framing_pct =
    100.0
    *. float_of_int (Store.frame_overhead_bytes * rec_on)
    /. Float.max 1e-9 (float_of_int wal_on)
  in
  let scrub_ticks = int_of_float (secs /. 0.005) in
  let ok = framing_pct <= 5.0 && p_on = p_off && wal_on = wal_off in
  Format.printf
    "framing overhead: %.2f%% of WAL bytes (budget 5%%); identical work with \
     verification off: %s; scrub cost: %d slices of <= %d KB over %.0f s \
     (%d full passes, %d records re-verified, %.1f per slice); wall-clock \
     delta %+.1f%% — %s@.@."
    framing_pct
    (if p_on = p_off && wal_on = wal_off then "yes" else "NO")
    scrub_ticks
    (P.scrub_budget_bytes / 1024)
    secs passes_on verified_on
    (float_of_int verified_on /. Float.max 1.0 (float_of_int scrub_ticks))
    (100.0 *. (w_on -. w_off) /. Float.max 1e-9 w_off)
    (if ok then "ok" else "FAIL");
  write_bench_json ~name:"integrity" ~metric:"framing_overhead_pct"
    ~value:(Printf.sprintf "%.3f" framing_pct)
    ~unit_:"%"
    [ ("records_verified", string_of_int verified_on) ];
  ok

let ablation_elastic () =
  (* Elasticity, measured: how much of the cluster's work the busiest
     hive carries before and after joining fresh hives, and how long a
     full drain of the busiest hive takes at increasing cluster sizes. *)
  let module E = Beehive_harness.Elastic_exp in
  Format.printf "##### Ablation: elastic scale-out / scale-in #####@.";
  Format.printf "%-8s %-8s %-14s %-14s %-12s %-14s %-10s@." "hives" "joins"
    "busy before" "busy after" "rebalances" "drain ms" "checks";
  let sizes = if full_scale then [ (4, 2); (8, 4); (16, 8) ] else [ (4, 2); (8, 4) ] in
  let all_ok = ref true in
  List.iter
    (fun (hives, joins) ->
      let report =
        E.run { E.default_config with E.e_hives = hives; e_joins = joins; e_keys = 6 * hives }
      in
      let ok = List.for_all snd (E.checks report) in
      if not ok then all_ok := false;
      Format.printf "%-8d %-8d %-14s %-14s %-12d %-14.1f %-10s@." hives joins
        (Printf.sprintf "%.1f%%" (100.0 *. report.E.r_before.E.p_busiest_share))
        (Printf.sprintf "%.1f%%" (100.0 *. report.E.r_scaled.E.p_busiest_share))
        report.E.r_rebalance_migrations
        (float_of_int report.E.r_last_drain_us /. 1000.0)
        (if ok then "ok" else "FAIL"))
    sizes;
  Format.printf "@.";
  !all_ok

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("figures", figures);
    ("optimizer", ablation_optimizer);
    ("external-store", ablation_external_store);
    ("cluster-size", ablation_cluster_size);
    ("replication", ablation_replication);
    ("durability", ablation_durability);
    ("loss", ablation_loss);
    ("outbox", ablation_outbox);
    ("integrity", ablation_integrity);
    ("elastic", ablation_elastic);
  ]

let () =
  let chosen =
    match Sys.getenv_opt "BEEHIVE_BENCH_ONLY" with
    | None -> sections
    | Some name -> (
      match List.assoc_opt name sections with
      | Some run -> [ (name, run) ]
      | None ->
        Format.eprintf "unknown BEEHIVE_BENCH_ONLY section %S (known: %s)@." name
          (String.concat ", " (List.map fst sections));
        exit 2)
  in
  (* Every chosen section runs, in table order, even after one fails. *)
  let failed = List.filter (fun (_, run) -> not (run ())) chosen in
  if failed <> [] then begin
    Format.printf "FAILED sections: %s@." (String.concat ", " (List.map fst failed));
    exit 1
  end
