(* The at-least-once transport and the failable fabric underneath it:
   exactly-once observable delivery under loss and partitions, dedup of
   retransmitted copies, exhaustion, the healthy-fabric fast path, and
   the per-link fault knobs on Channels. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Channels = Beehive_net.Channels
module Transport = Beehive_net.Transport

let make ?(seed = 42) ?(n_hives = 4) ?(dedup = true) () =
  let engine = Engine.create ~seed () in
  let chans = Channels.create ~rng:(Rng.split (Engine.rng engine)) ~n_hives in
  let tr =
    Transport.create ~engine ~rng:(Rng.split (Engine.rng engine))
      ~alive:(fun _ -> true) ~dedup chans
  in
  (engine, chans, tr)

(* A [transport.*] counter, read from the gauges. *)
let gauge tr name = List.assoc ("transport." ^ name) (Transport.gauges tr)

let drain engine =
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 2.0))

(* Fires [n] messages round-robin over all cross-hive pairs and returns
   the per-message delivery counts. A message is its index, posted on
   one lane that counts its arrivals. *)
let send_burst engine tr ~n_hives n =
  let delivered = Array.make n 0 in
  let lane = Engine.lane engine (fun i -> delivered.(i) <- delivered.(i) + 1) in
  for i = 0 to n - 1 do
    let src = i mod n_hives in
    let dst = (i + 1 + (i mod (n_hives - 1))) mod n_hives in
    let dst = if dst = src then (src + 1) mod n_hives else dst in
    Transport.send tr ~src:(Channels.Hive src) ~dst:(Channels.Hive dst) ~bytes:100
      ~on_drop:ignore lane i
  done;
  delivered

let check_exactly_once delivered =
  Array.iteri
    (fun i n ->
      if n <> 1 then
        Alcotest.fail (Printf.sprintf "message %d delivered %d times" i n))
    delivered

(* On a healthy fabric the transport is invisible: every message arrives
   once with no retransmission machinery engaged. *)
let test_fast_path_healthy_fabric () =
  let engine, _, tr = make () in
  let delivered = send_burst engine tr ~n_hives:4 50 in
  drain engine;
  check_exactly_once delivered;
  Alcotest.(check int) "sent" 50 (Transport.sent tr);
  Alcotest.(check int) "delivered" 50 (Transport.delivered tr);
  Alcotest.(check int) "no retransmits" 0 (Transport.retransmits tr);
  Alcotest.(check int) "no duplicates" 0 (gauge tr "duplicates");
  Alcotest.(check int) "nothing pending" 0 (gauge tr "pending")

(* Heavy loss: every message still arrives exactly once, through
   retransmission (which must actually have happened), and every
   retransmitted copy the receiver did see twice was suppressed. *)
let test_exactly_once_under_loss () =
  let engine, chans, tr = make () in
  Channels.set_loss chans 0.3;
  let delivered = send_burst engine tr ~n_hives:4 200 in
  drain engine;
  check_exactly_once delivered;
  Alcotest.(check int) "all delivered" 200 (Transport.delivered tr);
  Alcotest.(check bool) "retransmission engaged" true (Transport.retransmits tr > 0);
  Alcotest.(check bool)
    "lost acks forced duplicate copies, all suppressed" true
    (gauge tr "duplicates" > 0);
  Alcotest.(check int) "nothing pending" 0 (gauge tr "pending");
  Alcotest.(check int) "nothing exhausted" 0 (gauge tr "exhausted")

(* A message sent into a partition window survives it: retries back off
   across the outage and deliver after the heal. *)
let test_delivery_across_partition_window () =
  let engine, chans, tr = make () in
  Channels.partition chans ~a:0 ~b:1;
  let hits = ref 0 in
  Transport.send tr ~src:(Channels.Hive 0) ~dst:(Channels.Hive 1) ~bytes:64
    ~on_drop:ignore
    (Engine.lane engine incr) hits;
  Engine.run_until engine (Simtime.of_ms 50);
  Alcotest.(check int) "nothing delivered while partitioned" 0 !hits;
  Alcotest.(check int) "still pending" 1 (gauge tr "pending");
  Channels.heal_all chans;
  drain engine;
  Alcotest.(check int) "delivered exactly once after heal" 1 !hits;
  Alcotest.(check bool) "took retransmissions" true (Transport.retransmits tr > 0);
  Alcotest.(check int) "nothing exhausted" 0 (gauge tr "exhausted")

(* A permanent partition exhausts the 80-attempt budget (about a second
   of backoff) and reports the drop instead of retrying forever. *)
let test_exhaustion_reports_drop () =
  let engine, chans, tr = make () in
  Channels.partition chans ~a:2 ~b:3;
  let dropped = ref 0 in
  Transport.send tr ~src:(Channels.Hive 2) ~dst:(Channels.Hive 3) ~bytes:64
    ~on_drop:(fun () -> incr dropped)
    (Engine.lane engine (fun () -> Alcotest.fail "delivered across a permanent partition"))
    ();
  drain engine;
  Alcotest.(check int) "on_drop fired once" 1 !dropped;
  Alcotest.(check int) "counted as exhausted" 1 (gauge tr "exhausted");
  Alcotest.(check int) "every attempt after the first retransmitted" 79
    (Transport.retransmits tr);
  Alcotest.(check int) "nothing pending" 0 (gauge tr "pending")

(* The dedup-off fault-injection hook really re-introduces the bug the
   check harness is supposed to catch: duplicate copies reach the
   application. *)
let test_dedup_off_hook_delivers_duplicates () =
  let engine, chans, tr = make ~dedup:false () in
  Channels.set_loss chans 0.3;
  let delivered = send_burst engine tr ~n_hives:4 200 in
  drain engine;
  let total = Array.fold_left ( + ) 0 delivered in
  Alcotest.(check bool)
    (Printf.sprintf "some message delivered more than once (total %d)" total)
    true (total > 200)

(* Per-link latency degradation hits exactly the configured directed
   link; the global setter is a broadcast over all of them. *)
let test_per_link_latency_factor () =
  let _, chans, _ = make () in
  let lat ~src ~dst =
    Simtime.to_us
      (Channels.transfer chans ~src:(Channels.Hive src) ~dst:(Channels.Hive dst)
         ~bytes:1000 ~now:Simtime.zero)
  in
  let base_01 = lat ~src:0 ~dst:1 in
  let base_10 = lat ~src:1 ~dst:0 in
  Channels.set_link_latency_factor chans ~src:0 ~dst:1 4.0;
  Alcotest.(check int) "0->1 four times slower" (4 * base_01) (lat ~src:0 ~dst:1);
  Alcotest.(check int) "1->0 (reverse) untouched" base_10 (lat ~src:1 ~dst:0);
  Channels.set_latency_factor chans 2.0;
  Alcotest.(check int) "broadcast overwrites per-link factors" (2 * base_01)
    (lat ~src:0 ~dst:1);
  Alcotest.(check int) "broadcast reaches the reverse link" (2 * base_10)
    (lat ~src:1 ~dst:0);
  Channels.set_latency_factor chans 1.0;
  Alcotest.(check int) "healed" base_01 (lat ~src:0 ~dst:1)

(* Partition bookkeeping: partitioned links refuse traffic without
   accounting bytes, heal_all clears partitions but not loss. *)
let test_partition_bookkeeping () =
  let _, chans, _ = make () in
  (* With no loss configured, only a partition loses a message. *)
  let cut ~src ~dst =
    let before = Beehive_net.Traffic_matrix.total_bytes (Channels.matrix chans) in
    match
      Channels.transfer_result chans ~src:(Channels.Hive src) ~dst:(Channels.Hive dst)
        ~bytes:100 ~now:Simtime.zero
    with
    | `Lost ->
      Alcotest.(check (float 1e-9)) "nothing accounted across a partition" before
        (Beehive_net.Traffic_matrix.total_bytes (Channels.matrix chans));
      true
    | `Delivered _ -> false
  in
  Channels.partition chans ~a:0 ~b:2;
  Alcotest.(check bool) "0->2 cut" true (cut ~src:0 ~dst:2);
  Alcotest.(check bool) "2->0 cut" true (cut ~src:2 ~dst:0);
  Alcotest.(check bool) "0->1 open" false (cut ~src:0 ~dst:1);
  Alcotest.(check bool) "fabric faulty" true (Channels.faulty chans);
  Channels.heal_all chans;
  Alcotest.(check bool) "partition healed" false (cut ~src:0 ~dst:2);
  Alcotest.(check bool) "fabric healthy" false (Channels.faulty chans);
  Channels.set_loss chans 0.1;
  Channels.heal_all chans;
  Alcotest.(check bool) "loss survives heal_all" true (Channels.faulty chans);
  Channels.set_loss chans 0.0;
  Alcotest.(check bool) "fabric healthy again" false (Channels.faulty chans)

(* Crash semantics, receiver side: the dedup cutoff is process memory, so
   a receiver crash reopens the double-delivery window — a retransmission
   racing the restart is delivered again. This pins the at-least-once
   floor the platform's durable inbox is built on: the transport alone
   does NOT give exactly-once across a crash. *)
let test_receiver_crash_reopens_dedup_window () =
  let engine, chans, tr = make () in
  Channels.set_loss chans 0.3;
  let delivered = send_burst engine tr ~n_hives:4 200 in
  (* Mid-flight: some copies are delivered but their acks lost, so
     retransmissions are still coming when the receiver's dedup state
     dies. *)
  Engine.run_until engine (Simtime.of_ms 3);
  Transport.crash_hive tr 1;
  Channels.set_loss chans 0.0;
  drain engine;
  let total = Array.fold_left ( + ) 0 delivered in
  Alcotest.(check bool)
    (Printf.sprintf "a retransmission was re-delivered after the crash (total %d)"
       total)
    true (total > 200)

(* Crash semantics, sender side: in-flight windows die without firing
   [on_drop], and the receiver accepts the restarted sender's messages
   instead of eating them as stale duplicates. *)
let test_sender_crash_restarts_sequencing () =
  let engine, chans, tr = make () in
  Channels.partition chans ~a:0 ~b:1;
  let stale = ref 0 and dropped = ref 0 in
  for _ = 1 to 5 do
    Transport.send tr ~src:(Channels.Hive 0) ~dst:(Channels.Hive 1) ~bytes:64
      ~on_drop:(fun () -> incr dropped)
      (Engine.lane engine incr) stale
  done;
  Engine.run_until engine (Simtime.of_ms 5);
  Transport.crash_hive tr 0;
  Alcotest.(check int) "in-flight window died silently (no on_drop)" 0 !dropped;
  Channels.heal_all chans;
  drain engine;
  Alcotest.(check int) "pre-crash copies gone with the process" 0 !stale;
  (* The restarted process continues the link's sequence numbers, which
     the receiver has never seen. *)
  let fresh = ref 0 in
  for _ = 1 to 5 do
    Transport.send tr ~src:(Channels.Hive 0) ~dst:(Channels.Hive 1) ~bytes:64
      ~on_drop:ignore
      (Engine.lane engine incr) fresh
  done;
  drain engine;
  Alcotest.(check int) "fresh epoch delivers exactly once" 5 !fresh

(* A copy already on the wire when its sender crashes still lands. The
   restarted sender continues the link's sequence numbers, so that copy
   cannot make the receiver take the sender's next message for a
   duplicate of it. Hives 2 and 3 are partitioned, so the reliable path
   runs while the link under test, 0 -> 1, delivers. *)
let test_copy_on_the_wire_at_sender_crash () =
  let engine, chans, tr = make () in
  Channels.partition chans ~a:2 ~b:3;
  let landed = ref 0 and next = ref 0 and dropped = ref 0 in
  let send deliver =
    Transport.send tr ~src:(Channels.Hive 0) ~dst:(Channels.Hive 1) ~bytes:64
      ~on_drop:(fun () -> incr dropped)
      (Engine.lane engine incr) deliver
  in
  send landed;
  Transport.crash_hive tr 0;
  Engine.run_until engine (Simtime.of_ms 1);
  Alcotest.(check int) "the copy on the wire landed" 1 !landed;
  send next;
  drain engine;
  Alcotest.(check int) "the restarted sender's next send is delivered" 1 !next;
  Alcotest.(check int) "nothing dropped" 0 !dropped

(* Intra-hive messages never ride the failable path, whatever the fault
   configuration says. *)
let test_intra_hive_never_fails () =
  let _, chans, _ = make ~n_hives:2 () in
  Channels.set_loss chans 0.99;
  Channels.partition chans ~a:0 ~b:1;
  for _ = 1 to 50 do
    match
      Channels.transfer_result chans ~src:(Channels.Hive 1) ~dst:(Channels.Hive 1)
        ~bytes:10 ~now:Simtime.zero
    with
    | `Delivered _ -> ()
    | `Lost -> Alcotest.fail "intra-hive message lost"
  done

let suite =
  [
    ( "transport",
      [
        Alcotest.test_case "fast path on a healthy fabric" `Quick
          test_fast_path_healthy_fabric;
        Alcotest.test_case "exactly-once delivery under 30% loss" `Quick
          test_exactly_once_under_loss;
        Alcotest.test_case "delivery across a partition window" `Quick
          test_delivery_across_partition_window;
        Alcotest.test_case "exhaustion reports the drop" `Quick
          test_exhaustion_reports_drop;
        Alcotest.test_case "dedup-off hook delivers duplicates" `Quick
          test_dedup_off_hook_delivers_duplicates;
        Alcotest.test_case "per-link latency factors" `Quick
          test_per_link_latency_factor;
        Alcotest.test_case "partition bookkeeping" `Quick test_partition_bookkeeping;
        Alcotest.test_case "receiver crash reopens the dedup window" `Quick
          test_receiver_crash_reopens_dedup_window;
        Alcotest.test_case "sender crash restarts sequencing" `Quick
          test_sender_crash_restarts_sequencing;
        Alcotest.test_case "a copy on the wire at a sender crash swallows nothing" `Quick
          test_copy_on_the_wire_at_sender_crash;
        Alcotest.test_case "intra-hive traffic never fails" `Quick
          test_intra_hive_never_fails;
      ] );
  ]
