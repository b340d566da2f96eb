(* End-to-end storage integrity: CRC32 framing of WAL records and
   snapshots, fsck truncation of torn tails, fail-stop of corrupt
   committed prefixes, background scrub + repair, peer re-seeding of
   replicated bees, and quarantine of unreplicated ones. *)

open Helpers
module Store = Beehive_store.Store
module Mark = Beehive_store.Mark
module Crc32 = Beehive_sim.Crc32
module Raft_replication = Beehive_core.Raft_replication
module Stats = Beehive_core.Stats

let size_of (d, k, w) =
  String.length d + String.length k + (match w with Some _ -> 8 | None -> 4)

let int_store ?config ?garble ?verify engine =
  Store.create engine ?config ?garble ?verify ~size_of ~seq:fst ~bytes:snd ()

(* One of the store's integrity counters, by name. *)
let counter store name = List.assoc name (Store.integrity_counters store)

let sorted_entries store ~bee = List.sort compare (Store.recover store ~bee)

let verdict : Store.verdict Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | Store.Intact -> Format.pp_print_string ppf "Intact"
      | Store.Truncated n -> Format.fprintf ppf "Truncated %d" n
      | Store.Corrupt d -> Format.fprintf ppf "Corrupt %S" d)
    ( = )

(* The classic CRC-32 check value: every implementation of the
   reflected 0xEDB88320 polynomial must map "123456789" to it. *)
let test_crc32_known_answer () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check bool) "distinct inputs, distinct sums" true
    (Crc32.string "R1|d/a=8" <> Crc32.string "R1|d/b=8")

(* Table-free reference: shift each bit through the reflected
   polynomial directly. *)
let crc32_bitwise s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
      done)
    s;
  !crc lxor 0xFFFFFFFF

let prop_crc32_matches_bitwise =
  QCheck.Test.make ~name:"crc32 matches the bitwise reference" ~count:500 QCheck.string
    (fun s -> Crc32.string s = crc32_bitwise s)

(* Every damaged frame a scrub or fsck verifies, and every frame
   [Store.wal_image] prints, is checksummed: that must not allocate. *)
let test_crc32_allocation_free () =
  let s = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let sum = ref 0 in
  Alcotest.(check (float 0.)) "minor words for a 4 KB string" 0.
    (Helpers.minor_words_of (fun () -> sum := Crc32.string s));
  Alcotest.(check int) "and it is the right sum" (crc32_bitwise s) !sum

(* A torn tail record is dropped at fsck, leaving exactly the state of
   the crash-consistent prefix — byte-identical to a store that never
   wrote the torn record at all. *)
let test_torn_tail_truncates_to_prefix () =
  let store = int_store (Engine.create ()) in
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "a", Some 1) ];
  Store.flush store;
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "b", Some 2) ];
  Store.flush store;
  let prefix = sorted_entries store ~bee:0 in
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "c", Some 3) ];
  Store.flush store;
  Alcotest.(check bool) "tail torn" true (Store.tear_tail store ~bee:0);
  Alcotest.check verdict "one record truncated" (Store.Truncated 1)
    (Store.fsck store ~bee:0);
  Alcotest.(check (list (triple string string int)))
    "recovers the crash-consistent prefix" prefix
    (List.sort compare (Store.recover store ~bee:0));
  Alcotest.(check int) "truncation counted" 1 (counter store "torn_truncations");
  (* The cut is clean: a second fsck finds nothing left to repair. *)
  Alcotest.check verdict "clean after the cut" Store.Intact (Store.fsck store ~bee:0);
  Alcotest.(check (list (pair int string))) "no suspect" [] (Store.suspects store)

(* A flipped byte inside the committed prefix is not recoverable-by-
   truncation: fsck fail-stops the bee instead of serving the bytes. *)
let test_bit_flip_fail_stops () =
  let store = int_store (Engine.create ()) in
  Store.append store ~bee:7 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "a", Some 1) ];
  Store.append store ~bee:7 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "b", Some 2) ];
  Store.flush store;
  Alcotest.(check bool) "record corrupted" true
    (Store.corrupt_record store ~bee:7 ~victim:0);
  (match Store.fsck store ~bee:7 with
  | Store.Corrupt _ -> ()
  | v -> Alcotest.failf "expected Corrupt, got %a" (Alcotest.pp verdict) v);
  Alcotest.(check bool) "marked suspect" true (List.mem_assoc 7 (Store.suspects store));
  Alcotest.(check bool) "a crc failure was counted" true
    (counter store "crc_failures" >= 1);
  Alcotest.(check bool) "oracle agrees" true
    (Store.verify_chain store ~bee:7 <> None)

let test_snapshot_rot_fail_stops () =
  let store =
    int_store
      ~config:{ Store.snapshot_threshold_bytes = 64 }
      (Engine.create ())
  in
  for i = 0 to 19 do
    Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "k", Some i) ];
    Store.flush store
  done;
  Alcotest.(check bool) "log compacted" true (Store.snapshot_count store ~bee:0 > 0);
  (* Rot is caught whichever path installed the snapshot: a compaction
     or a re-seed. *)
  let caught what =
    Alcotest.(check bool) (what ^ ": snapshot rotted") true (Store.rot_snapshot store ~bee:0);
    (match Store.fsck store ~bee:0 with
    | Store.Corrupt _ -> ()
    | v -> Alcotest.failf "%s: expected Corrupt, got %a" what (Alcotest.pp verdict) v);
    Alcotest.(check bool) (what ^ ": the oracle agrees") true
      (Store.verify_chain store ~bee:0 <> None)
  in
  caught "after a compaction";
  Store.reseed store ~bee:0 ~entries:[ ("d", "k", 5); ("d", "j", 6) ] ~outbox:[] ~inbox:[];
  Alcotest.check verdict "the re-seed is sound" Store.Intact (Store.fsck store ~bee:0);
  caught "after a re-seed";
  (* A bee that never compacted has no snapshot bytes to rot. *)
  Store.append store ~bee:1 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "x", Some 1) ];
  Store.flush store;
  Alcotest.(check bool) "nothing to rot without a snapshot" false
    (Store.rot_snapshot store ~bee:1)

(* The frames [Store.wal_image] prints, [(header, len, crc, payload)]:
   the snapshot's ("S") and each WAL record's ("W lsn=.. at=.."). *)
let image_frames store =
  String.split_on_char '\n' (Store.wal_image store)
  |> List.filter_map (fun line ->
         if String.length line < 2 || not (List.mem (String.sub line 0 2) [ "S "; "W " ])
         then None
         else
           let rec cut i = if String.sub line i 5 = " len=" then i else cut (i + 1) in
           let cut = cut 0 in
           Scanf.sscanf
             (String.sub line (cut + 1) (String.length line - cut - 1))
             "len=%d crc=%d %[^\n]"
             (fun len crc payload -> Some (String.sub line 0 cut, len, crc, payload)))

(* A damaged frame carries the CRC its write recorded, so flipping the
   same byte back restores a frame that verifies: the image is the one
   the commit would have written, byte for byte. *)
let test_double_flip_restores () =
  let store = int_store (Engine.create ()) in
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "a", Some 1) ];
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "b", Some 2) ];
  Store.flush store;
  let sound = image_frames store in
  Alcotest.(check bool) "flipped" true (Store.corrupt_record store ~bee:0 ~victim:1);
  let damaged = image_frames store in
  Alcotest.(check (list (triple string int int)))
    "the damaged frame keeps its write-time length and crc"
    (List.map (fun (h, len, crc, _) -> (h, len, crc)) sound)
    (List.map (fun (h, len, crc, _) -> (h, len, crc)) damaged);
  Alcotest.(check bool) "its bytes changed" true (sound <> damaged);
  Alcotest.(check bool) "flipped back" true (Store.corrupt_record store ~bee:0 ~victim:1);
  Alcotest.check verdict "verifies again" Store.Intact (Store.fsck store ~bee:0);
  Alcotest.(check (option string)) "the oracle agrees" None (Store.verify_chain store ~bee:0);
  Alcotest.(check bool) "the image is the sound one" true (image_frames store = sound)

(* A tear after a flip leaves a short frame: length framing reads it as
   torn, so fsck truncates it rather than fail-stopping the bee. *)
let test_flip_then_tear_reads_torn () =
  let store = int_store (Engine.create ()) in
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "a", Some 1) ];
  Store.flush store;
  let prefix = sorted_entries store ~bee:0 in
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "b", Some 2) ];
  Store.flush store;
  Alcotest.(check bool) "newest record flipped" true
    (Store.corrupt_record store ~bee:0 ~victim:0);
  Alcotest.(check bool) "then torn" true (Store.tear_tail store ~bee:0);
  Alcotest.check verdict "read as torn" (Store.Truncated 1) (Store.fsck store ~bee:0);
  Alcotest.(check (list (triple string string int))) "the prefix survives" prefix
    (sorted_entries store ~bee:0)

(* Every frame of an undamaged store prints the length and CRC of the
   payload it prints: the image rebuilt from a sound record is the one
   its envelope describes. *)
let test_sound_frames_match_their_payload () =
  let store =
    int_store ~config:{ Store.snapshot_threshold_bytes = 400 } (Engine.create ())
  in
  for i = 0 to 29 do
    let bee = i mod 3 in
    Store.append store ~bee ~hive:(i mod 2)
      ~outbox:[ (i + 1, 10 + i) ]
      ~inbox:[ Mark.make ~sender:9 ~seq:i ] ~consumed:(Mark.make ~sender:8 ~seq:i)
      [ ("d", Printf.sprintf "k%d" (i mod 4), Some i); ("e", "gone", None) ];
    if i mod 4 = 3 then Store.flush store
  done;
  Store.flush store;
  let frames = image_frames store in
  Alcotest.(check (pair int int)) "non-empty snapshots and records printed" (3, 6)
    ( List.length (List.filter (fun (h, _, _, p) -> h = "S" && String.contains p '|') frames),
      List.length (List.filter (fun (h, _, _, _) -> h <> "S") frames) );
  List.iter
    (fun (header, len, crc, payload) ->
      Alcotest.(check (pair int int)) header
        (String.length payload, Crc32.string payload)
        (len, crc))
    frames

(* What recovery reads from a damaged frame is garbage, not the original
   value — the store routes damaged-frame values through the caller's
   [garble] so silent corruption has visible consequences downstream. *)
let test_damaged_frames_reload_garbled () =
  let store = int_store ~garble:(fun v -> v lxor 0xFF) (Engine.create ()) in
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "a", Some 41) ];
  Store.flush store;
  ignore (Store.corrupt_record store ~bee:0 ~victim:0);
  Alcotest.(check (list (triple string string int)))
    "recovery serves the garbled value"
    [ ("d", "a", 41 lxor 0xFF) ]
    (List.sort compare (Store.recover store ~bee:0))

(* With verification disabled (the checksums-off injected bug), torn
   tails are still caught — length framing needs no checksum — but
   flipped bytes sail through fsck as if intact. *)
let test_checksums_off_still_catches_torn () =
  let store = int_store ~verify:false (Engine.create ()) in
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "a", Some 1) ];
  Store.flush store;
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "b", Some 2) ];
  Store.flush store;
  ignore (Store.tear_tail store ~bee:0);
  Alcotest.check verdict "torn still truncated" (Store.Truncated 1)
    (Store.fsck store ~bee:0);
  Store.append store ~bee:1 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "c", Some 3) ];
  Store.flush store;
  ignore (Store.corrupt_record store ~bee:1 ~victim:0);
  Alcotest.check verdict "bit flip undetected" Store.Intact
    (Store.fsck store ~bee:1);
  Alcotest.(check bool) "the oracle still sees it" true
    (Store.verify_chain store ~bee:1 <> None)

(* Scrub walks cold bytes under a budget, resuming where it stopped, and
   reports damage wherever the cursor finds it. *)
let test_scrub_budget_and_detection () =
  let store = int_store (Engine.create ()) in
  for bee = 0 to 3 do
    for i = 0 to 9 do
      Store.append store ~bee ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none
        [ ("d", Printf.sprintf "k%d" i, Some i) ]
    done
  done;
  Store.flush store;
  ignore (Store.corrupt_record store ~bee:3 ~victim:4);
  (* A full-budget pass scans everything and finds the damage. *)
  let scanned, damaged = Store.scrub store ~budget_bytes:max_int in
  Alcotest.(check bool) "bytes were scanned" true (scanned > 0);
  Alcotest.(check (list int)) "bee 3 flagged" [ 3 ] (List.map fst damaged);
  Alcotest.(check int) "full pass completed" 1 (Store.scrubs_completed store);
  (* Tiny slices cover the same ground incrementally: enough of them
     complete a second full pass and re-find the same damage. *)
  let found = ref false in
  let slices = ref 0 in
  while Store.scrubs_completed store < 2 && !slices < 10_000 do
    incr slices;
    let _, d = Store.scrub store ~budget_bytes:64 in
    if List.mem_assoc 3 d then found := true
  done;
  Alcotest.(check bool) "second pass completed under a 64-byte budget" true
    (Store.scrubs_completed store >= 2);
  Alcotest.(check bool) "several slices were needed" true (!slices > 1);
  Alcotest.(check bool) "damage re-found incrementally" true !found

(* Model-based check of [Store.scrub] against the original list walk:
   sort every tracked log by bee id, split it at the cursor, visit
   [after @ before] until the budget is spent. The model tracks which
   bees have logs, the cursor and the two counters; byte and record
   counts are read from the store. *)
type scrub_model = {
  mutable bees : int list;
  mutable cursor : int;
  mutable completed : int;
  mutable verified : int;
}

let oracle_scrub m store ~budget_bytes =
  if budget_bytes <= 0 then (0, [])
  else begin
    let logs = List.sort compare m.bees in
    if logs = [] then (0, [])
    else begin
      let after, before = List.partition (fun bee -> bee > m.cursor) logs in
      let scanned = ref 0 in
      let visited = ref [] in
      (try
         List.iter
           (fun bee ->
             if !scanned >= budget_bytes then raise Exit;
             visited := bee :: !visited;
             m.cursor <- bee;
             let records, bytes = Store.recovery_cost store ~bee in
             scanned := !scanned + bytes;
             m.verified <- m.verified + records + 1)
           (after @ before)
       with Exit -> ());
      let visited = List.rev !visited in
      let max_bee = List.fold_left max min_int logs in
      if List.length visited >= List.length logs || m.cursor = max_bee then begin
        m.completed <- m.completed + 1;
        m.cursor <- -1
      end;
      (!scanned, List.filter (fun bee -> Store.verify_chain store ~bee <> None) visited)
    end
  end

type scrub_op =
  | Append of int * int
  | Flush
  | Forget of int
  | Reseed of int
  | Corrupt of int
  | Scrub of int

let show_scrub_op = function
  | Append (bee, v) -> Printf.sprintf "append %d %d" bee v
  | Flush -> "flush"
  | Forget bee -> Printf.sprintf "forget %d" bee
  | Reseed bee -> Printf.sprintf "reseed %d" bee
  | Corrupt bee -> Printf.sprintf "corrupt %d" bee
  | Scrub budget -> Printf.sprintf "scrub %d" budget

let gen_scrub_op =
  let open QCheck.Gen in
  let bee = int_bound 23 in
  frequency
    [
      (5, map2 (fun b v -> Append (b, v)) bee (int_bound 99));
      (2, return Flush);
      (1, map (fun b -> Forget b) bee);
      (1, map (fun b -> Reseed b) bee);
      (1, map (fun b -> Corrupt b) bee);
      (4, map (fun b -> Scrub b) (oneofl [ 0; 64; max_int ]));
    ]

let prop_scrub_matches_list_walk =
  QCheck.Test.make ~name:"scrub matches the list-walk oracle" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_scrub_op ops))
       QCheck.Gen.(list_size (0 -- 80) gen_scrub_op))
    (fun ops ->
      let store =
        int_store ~config:{ Store.snapshot_threshold_bytes = 96 } (Engine.create ())
      in
      let m = { bees = []; cursor = -1; completed = 0; verified = 0 } in
      let track bee = if not (List.mem bee m.bees) then m.bees <- bee :: m.bees in
      List.for_all
        (fun op ->
          let slice_ok =
            match op with
            | Append (bee, v) ->
              Store.append store ~bee ~hive:(bee mod 3) ~outbox:[] ~inbox:[] ~consumed:Mark.none
                [ ("d", Printf.sprintf "k%d" (v mod 5), Some v) ];
              track bee;
              true
            | Flush ->
              Store.flush store;
              true
            | Forget bee ->
              Store.forget store ~bee;
              m.bees <- List.filter (( <> ) bee) m.bees;
              true
            | Reseed bee ->
              Store.reseed store ~bee ~entries:[ ("d", "r", bee) ] ~outbox:[] ~inbox:[];
              track bee;
              true
            | Corrupt bee ->
              ignore (Store.corrupt_record store ~bee ~victim:bee);
              true
            | Scrub budget_bytes ->
              let scanned, found = oracle_scrub m store ~budget_bytes in
              let got_scanned, got_found = Store.scrub store ~budget_bytes in
              got_scanned = scanned && List.map fst got_found = found
          in
          slice_ok
          && Store.scrubs_completed store = m.completed
          && Store.records_verified store = m.verified)
        ops)

(* One scrub slice costs what it visits, not what the store holds:
   over 2,000 logs it allocates no more than over 100 under the same
   budget. *)
let test_scrub_slice_allocation_flat () =
  let slice_words n =
    let store = int_store (Engine.create ()) in
    for bee = 0 to n - 1 do
      Store.append store ~bee ~hive:0 ~outbox:[] ~inbox:[] ~consumed:Mark.none [ ("d", "k", Some bee) ]
    done;
    Store.flush store;
    let budget_bytes = 400 in
    (* The first slice also builds the bee-order ring. *)
    ignore (Store.scrub store ~budget_bytes);
    Helpers.minor_words_of (fun () -> ignore (Store.scrub store ~budget_bytes))
  in
  let small = slice_words 100 and large = slice_words 2_000 in
  if large > small then
    Alcotest.failf "a slice over 2000 logs allocated %.0f words, over 100 %.0f" large
      small

(* Platform: the background scrubber repairs a damaged live bee in place
   from its in-memory committed state — no restart, no peer, no state
   change visible to the application. *)
let test_scrub_repairs_live_bee () =
  let engine, platform = durable_platform () in
  put platform ~from:0 ~key:"a" ~value:7;
  drain engine;
  Platform.flush_durability platform;
  let bee = owner_exn platform ~app:"test.kv" "a" in
  let s = Option.get (Platform.store platform) in
  ignore (Store.corrupt_record s ~bee ~victim:0);
  Alcotest.(check bool) "damage is real" true (Store.verify_chain s ~bee <> None);
  (* The scrubber runs every 5 ms; give it a moment. *)
  run_for engine 0.1;
  Alcotest.(check int) "repaired by local rewrite" 1 (Store.local_rewrites s);
  Alcotest.(check (option string)) "chain is sound again" None
    (Store.verify_chain s ~bee);
  Alcotest.(check (list (pair int string))) "no suspect left" []
    (Platform.storage_suspects platform);
  Alcotest.(check (option int)) "application state untouched" (Some 7)
    (store_value platform ~bee ~key:"a");
  (* And the repaired log still recovers correctly through a real crash. *)
  let hive = (Option.get (Platform.bee_view platform bee)).Platform.view_hive in
  Platform.fail_hive platform hive;
  drain engine;
  Platform.restart_hive platform hive;
  drain engine;
  Alcotest.(check (option int)) "recovers after repair" (Some 7)
    (store_value platform ~bee ~key:"a")

(* Platform: a crashed bee whose committed prefix fails fsck, with no
   replica anywhere, must fail-stop — dead with a dead-letter record,
   never serving the garbage — while its registry cells stay claimed so
   ownership remains unique. *)
let test_unreplicated_corruption_quarantines () =
  let engine, platform = durable_platform () in
  put platform ~from:0 ~key:"q" ~value:3;
  drain engine;
  Platform.flush_durability platform;
  let bee = owner_exn platform ~app:"test.kv" "q" in
  let hive = (Option.get (Platform.bee_view platform bee)).Platform.view_hive in
  Platform.fail_hive platform hive;
  let s = Option.get (Platform.store platform) in
  ignore (Store.corrupt_record s ~bee ~victim:0);
  Platform.restart_hive platform hive;
  drain engine;
  Alcotest.(check bool) "bee is dead, not revived" false
    (Option.get (Platform.bee_view platform bee)).Platform.view_alive;
  Alcotest.(check (option int)) "counted" (Some 1)
    (List.assoc_opt "integrity.quarantined_bees" (Platform.gauges platform));
  (match Store.dead_letters s with
  | [ (b, _) ] -> Alcotest.(check int) "dead-lettered" bee b
  | dl -> Alcotest.failf "expected one dead letter, got %d" (List.length dl));
  Alcotest.(check int) "cells stay claimed (single owner)" bee
    (owner_exn platform ~app:"test.kv" "q");
  Alcotest.(check (list (pair int string))) "suspect resolved by quarantine" []
    (Platform.storage_suspects platform)

(* Platform + Raft: the same corruption on a replicated bee is repaired
   at restart by re-seeding from the consensus peers' replica — the
   catch-up machinery doubling as a repair channel. *)
let test_replicated_corruption_reseeds_from_peer () =
  let engine = Engine.create () in
  let platform =
    Platform.create engine
      {
        (Platform.default_config ~n_hives:5) with
        Platform.durability = Some Store.default_config;
      }
  in
  Platform.register_app platform (replicated_kv_app ());
  let _rep = Raft_replication.install platform () in
  Platform.start platform;
  run_for engine 2.0;
  for v = 1 to 4 do
    put platform ~from:1 ~key:"r" ~value:v;
    run_for engine 0.5
  done;
  let bee = owner_exn platform ~app:"test.kv" "r" in
  let hive = (Option.get (Platform.bee_view platform bee)).Platform.view_hive in
  Platform.flush_durability platform;
  Platform.crash_hive platform hive;
  let s = Option.get (Platform.store platform) in
  ignore (Store.rot_snapshot s ~bee |> fun rotted ->
          if not rotted then ignore (Store.corrupt_record s ~bee ~victim:0));
  Platform.restart_hive platform hive;
  run_for engine 2.0;
  Alcotest.(check bool) "bee revived" true
    (Option.get (Platform.bee_view platform bee)).Platform.view_alive;
  Alcotest.(check int) "repaired from a peer" 1 (Store.peer_repairs s);
  Alcotest.(check (option int)) "state is the replicated image" (Some 10)
    (store_value platform ~bee ~key:"r");
  Alcotest.(check (option string)) "fresh storage verifies" None
    (Store.verify_chain s ~bee);
  (* The re-seeded bee keeps processing. *)
  put platform ~from:1 ~key:"r" ~value:5;
  run_for engine 1.0;
  Alcotest.(check (option int)) "processes after repair" (Some 15)
    (store_value platform ~bee ~key:"r")

(* Platform: restart_hive consults fsck — a torn tail rolls the bee back
   to the crash-consistent prefix instead of failing recovery. *)
let test_restart_truncates_torn_tail () =
  let engine, platform = durable_platform () in
  put platform ~from:0 ~key:"t" ~value:7;
  drain engine;
  Platform.flush_durability platform;
  let bee = owner_exn platform ~app:"test.kv" "t" in
  let hive = (Option.get (Platform.bee_view platform bee)).Platform.view_hive in
  put platform ~from:0 ~key:"t" ~value:100;
  drain engine;
  Platform.flush_durability platform;
  Alcotest.(check (option int)) "both commits applied" (Some 107)
    (store_value platform ~bee ~key:"t");
  Platform.fail_hive platform hive;
  let s = Option.get (Platform.store platform) in
  Alcotest.(check bool) "tail torn while down" true (Store.tear_tail s ~bee);
  Platform.restart_hive platform hive;
  drain engine;
  Alcotest.(check (option int)) "revived at the crash-consistent prefix" (Some 7)
    (store_value platform ~bee ~key:"t");
  Alcotest.(check bool) "truncation counted" true (counter s "torn_truncations" >= 1);
  (* Integrity gauges surface through the platform gauges. *)
  let gauges = Platform.gauges platform in
  Alcotest.(check bool) "records_verified gauge" true
    (match List.assoc_opt "integrity.records_verified" gauges with
    | Some n -> n > 0
    | None -> false);
  Alcotest.(check bool) "torn_truncations gauge" true
    (List.assoc_opt "integrity.torn_truncations" gauges = Some (counter s "torn_truncations"))

let suite =
  [
    ( "integrity",
      [
        Alcotest.test_case "crc32 known answer" `Quick test_crc32_known_answer;
        QCheck_alcotest.to_alcotest prop_crc32_matches_bitwise;
        Alcotest.test_case "crc32 allocates nothing" `Quick test_crc32_allocation_free;
        Alcotest.test_case "torn tail truncates to the crash-consistent prefix"
          `Quick test_torn_tail_truncates_to_prefix;
        Alcotest.test_case "bit flip fail-stops the committed prefix" `Quick
          test_bit_flip_fail_stops;
        Alcotest.test_case "snapshot rot fail-stops" `Quick
          test_snapshot_rot_fail_stops;
        Alcotest.test_case "a double flip restores the frame" `Quick
          test_double_flip_restores;
        Alcotest.test_case "a flip then a tear reads as torn" `Quick
          test_flip_then_tear_reads_torn;
        Alcotest.test_case "sound frames print their payload's length and crc" `Quick
          test_sound_frames_match_their_payload;
        Alcotest.test_case "damaged frames reload garbled" `Quick
          test_damaged_frames_reload_garbled;
        Alcotest.test_case "checksums-off still catches torn tails" `Quick
          test_checksums_off_still_catches_torn;
        Alcotest.test_case "scrub budget accounting and detection" `Quick
          test_scrub_budget_and_detection;
        QCheck_alcotest.to_alcotest prop_scrub_matches_list_walk;
        Alcotest.test_case "scrub slice allocation is flat in the log count" `Quick
          test_scrub_slice_allocation_flat;
        Alcotest.test_case "scrub repairs a live bee in place" `Quick
          test_scrub_repairs_live_bee;
        Alcotest.test_case "unreplicated corruption quarantines" `Quick
          test_unreplicated_corruption_quarantines;
        Alcotest.test_case "replicated corruption re-seeds from a peer" `Quick
          test_replicated_corruption_reseeds_from_peer;
        Alcotest.test_case "restart truncates a torn tail" `Quick
          test_restart_truncates_torn_tail;
      ] );
  ]
