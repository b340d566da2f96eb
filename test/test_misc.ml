(* Small-module coverage: Message, Value, Mapping, Cell printing,
   Series rendering, Stats windows and latency percentiles, Mailbox. *)

module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Mapping = Beehive_core.Mapping
module Cell = Beehive_core.Cell
module Stats = Beehive_core.Stats
module Mailbox = Beehive_core.Mailbox
module Series = Beehive_net.Series
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels

type Message.payload += Misc_probe

let test_message_ids_increase () =
  let mk () =
    Message.make ~kind:"k" ~src:Message.From_system ~sent_at:Simtime.zero Misc_probe
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "ids strictly increase" true (b.Message.msg_id > a.Message.msg_id);
  Alcotest.(check int) "default size" Message.default_size a.Message.size

(* The platform counts each handled message against the hive it came
   from: an emitting bee's hive, a hive endpoint's own hive, a switch's
   master hive, and no hive for a system message. *)
let test_message_src_hive () =
  let open Helpers in
  let relay =
    App.create ~name:"test.relay" ~dicts:[ "r" ]
      [
        App.handler ~kind:"test.relay"
          ~map:(fun _ -> Mapping.with_key "r" "x")
          (fun ctx _ -> Context.emit ctx ~kind:k_put (Put { p_key = "k"; p_value = 1 }));
      ]
  in
  let engine, platform = make_platform ~apps:[ kv_app (); relay ] () in
  Channels.assign_switch (Platform.channels platform) ~switch:9 ~hive:1;
  let put from = Platform.inject platform ~from ~kind:k_put (Put { p_key = "k"; p_value = 1 }) in
  put (Channels.Hive 2);
  drain engine;
  put (Channels.Switch 9);
  Platform.inject platform ~from:(Channels.Hive 3) ~kind:"test.relay" Misc_probe;
  Platform.emit_system platform ~hive:0 ~size:64 ~kind:k_put (Put { p_key = "k"; p_value = 1 });
  drain engine;
  let kv = owner_exn platform ~app:"test.kv" "k" in
  let window = ref None in
  Platform.iter_windows platform ~hive:2 (fun ~bee ~app:_ w ->
      if bee = kv then window := Some w);
  let w = Option.get !window in
  Alcotest.(check int) "four puts handled" 4 w.Stats.w_processed;
  Alcotest.(check (list (pair int int))) "bee, endpoint and switch sources; system has none"
    [ (1, 1); (2, 1); (3, 1) ] w.Stats.w_in_by_hive

let test_value_sizes () =
  Alcotest.(check int) "int" 8 (Value.size (Value.V_int 1));
  Alcotest.(check int) "string" 9 (Value.size (Value.V_string "hello"));
  Alcotest.(check int) "pair" 16 (Value.size (Value.V_pair (Value.V_int 1, Value.V_float 2.0)));
  Alcotest.(check int) "list" (4 + 16) (Value.size (Value.V_list [ Value.V_int 1; Value.V_int 2 ]));
  Alcotest.(check int) "bool" 1 (Value.size (Value.V_bool true))

let test_value_pp () =
  let s v = Format.asprintf "%a" Value.pp v in
  Alcotest.(check string) "int" "42" (s (Value.V_int 42));
  Alcotest.(check string) "string" "\"x\"" (s (Value.V_string "x"));
  Alcotest.(check string) "list" "[1; 2]" (s (Value.V_list [ Value.V_int 1; Value.V_int 2 ]))

let test_mapping_builders () =
  (match Mapping.with_key "d" "k" with
  | Mapping.Key { dict; key } ->
    Alcotest.(check (pair string string)) "the one cell" ("d", "k") (dict, key)
  | _ -> Alcotest.fail "with_key");
  (match Mapping.with_keys [ ("d", "k") ] with
  | Mapping.Key { dict = "d"; key = "k" } -> ()
  | _ -> Alcotest.fail "with_keys of one pair");
  (match Mapping.with_keys [ ("d", "k"); ("e", "j") ] with
  | Mapping.Cells cs ->
    Alcotest.(check int) "two cells" 2 (Cell.Set.cardinal cs);
    Alcotest.(check bool) "the right ones" true
      (Cell.Set.mem (Cell.cell "d" "k") cs && Cell.Set.mem (Cell.cell "e" "j") cs)
  | _ -> Alcotest.fail "with_keys");
  Alcotest.(check string) "a key prints as its one cell" "cells {(d, k)}"
    (Format.asprintf "%a" Mapping.pp (Mapping.with_key "d" "k"));
  (match Mapping.whole_dicts [ "a"; "b" ] with
  | Mapping.Cells cs ->
    Alcotest.(check bool) "wildcards" true
      (Cell.Set.mem (Cell.whole "a") cs && Cell.Set.mem (Cell.whole "b") cs)
  | _ -> Alcotest.fail "whole_dicts");
  Alcotest.(check string) "pp foreach" "foreach S"
    (Format.asprintf "%a" Mapping.pp (Mapping.Foreach "S"))

(* [with S[k]] is one 3-word [Key]: no cell, set node or set box (12
   words as a singleton [Cells]). *)
let test_single_key_map_words () =
  let keys = Array.init 16 string_of_int in
  let before = Gc.minor_words () in
  for i = 1 to 1_000 do
    ignore (Sys.opaque_identity (Mapping.with_key "d" keys.(i land 15)))
  done;
  Alcotest.(check (float 0.)) "words per map" 3. ((Gc.minor_words () -. before) /. 1_000.)

let test_cell_pp_and_order () =
  Alcotest.(check string) "concrete" "(S, sw1)" (Format.asprintf "%a" Cell.pp (Cell.cell "S" "sw1"));
  Alcotest.(check string) "wildcard" "(S, *)" (Format.asprintf "%a" Cell.pp (Cell.whole "S"));
  (* Wildcards sort before keys within a dict. *)
  let sorted = List.sort Cell.compare [ Cell.cell "S" "a"; Cell.whole "S" ] in
  Alcotest.(check bool) "wildcard first" true (List.hd sorted = Cell.whole "S")

let test_series_sparkline () =
  let s = Series.create ~bucket:(Simtime.of_sec 1.0) in
  for i = 0 to 9 do
    Series.add s ~at:(Simtime.of_sec (float_of_int i)) (i * 100)
  done;
  let line = Format.asprintf "%a" Series.render_sparkline s in
  Alcotest.(check int) "one glyph per bucket" 10 (String.length line);
  Alcotest.(check bool) "peak is the densest glyph" true (String.get line 9 = '@');
  for i = 10 to 119 do
    Series.add s ~at:(Simtime.of_sec (float_of_int i)) 100
  done;
  Alcotest.(check int) "120 buckets fold into 60 glyphs" 60
    (String.length (Format.asprintf "%a" Series.render_sparkline s));
  let empty = Series.create ~bucket:(Simtime.of_sec 1.0) in
  Alcotest.(check string) "empty" "(empty)"
    (Format.asprintf "%a" Series.render_sparkline empty)

let test_stats_windows () =
  let s = Stats.create () in
  Stats.record_in s ~src_hive:1;
  Stats.record_in s ~src_hive:1;
  Stats.record_in s ~src_hive:2;
  let w = Stats.take_window s in
  Alcotest.(check int) "window processed" 3 w.Stats.w_processed;
  Alcotest.(check (list (pair int int))) "by hive" [ (1, 2); (2, 1) ] w.Stats.w_in_by_hive;
  Alcotest.(check int) "every message has a source hive" w.Stats.w_processed
    (List.fold_left (fun acc (_, n) -> acc + n) 0 w.Stats.w_in_by_hive);
  (* Window resets; cumulative survives. *)
  let w2 = Stats.take_window s in
  Alcotest.(check int) "fresh window empty" 0 w2.Stats.w_processed;
  Alcotest.(check int) "cumulative" 3 (Stats.processed s)

(* The window counts as [Stats] kept them before the dense array, a
   Hashtbl sorted on every take: the oracle for [take_window]. *)
module Table_window = struct
  type t = {
    mutable cur_processed : int;
    cur_in_by_hive : (int, int) Hashtbl.t;
  }

  let create () = { cur_processed = 0; cur_in_by_hive = Hashtbl.create 8 }

  let bump tbl k n =
    Hashtbl.replace tbl k (n + match Hashtbl.find tbl k with c -> c | exception Not_found -> 0)

  let record_in t ~src_hive =
    t.cur_processed <- t.cur_processed + 1;
    match src_hive with Some h -> bump t.cur_in_by_hive h 1 | None -> ()

  let sorted_assoc tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let take_window t =
    let w = (t.cur_processed, sorted_assoc t.cur_in_by_hive) in
    t.cur_processed <- 0;
    Hashtbl.reset t.cur_in_by_hive;
    w
end

(* [Some (Some h)] records a message from hive [h], [Some None] one with
   no source hive, [None] takes the window. *)
let prop_take_window_matches_table =
  let op =
    QCheck.Gen.(
      frequency
        [
          (8, map (fun h -> Some (Some h)) (int_bound 63));
          (1, return (Some None));
          (1, return None);
        ])
  in
  let print = function
    | Some (Some h) -> string_of_int h
    | Some None -> "-"
    | None -> "take"
  in
  QCheck.Test.make ~name:"take_window matches the Hashtbl oracle" ~count:500
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (0 -- 200) op))
    (fun ops ->
      let s = Stats.create () and oracle = Table_window.create () in
      let same () =
        let w = Stats.take_window s in
        (w.Stats.w_processed, w.Stats.w_in_by_hive) = Table_window.take_window oracle
      in
      List.for_all
        (function
          | Some src_hive ->
            Stats.record_in s ~src_hive:(Option.value src_hive ~default:(-1));
            Table_window.record_in oracle ~src_hive;
            true
          | None -> same ())
        ops
      && same ())

let test_latency_percentiles () =
  let s = Stats.latency () in
  (* 9 samples at ~100us, one at ~10000us. *)
  for _ = 1 to 9 do
    Stats.record_latency s (Simtime.of_us 100)
  done;
  Stats.record_latency s (Simtime.of_us 10_000);
  (match Stats.latency_percentile s 0.5 with
  | Some p50 -> Alcotest.(check bool) "p50 near 100us" true (p50 >= 64 && p50 <= 256)
  | None -> Alcotest.fail "p50");
  (match Stats.latency_percentile s 0.99 with
  | Some p99 -> Alcotest.(check bool) "p99 catches the outlier" true (p99 >= 8192)
  | None -> Alcotest.fail "p99");
  Alcotest.(check bool) "no samples -> None" true
    (Stats.latency_percentile (Stats.latency ()) 0.5 = None)

(* A bee's ring-buffer mailbox against [Stdlib.Queue], the structure it
   replaced: random pushes, pops, clears and transfers into a second
   mailbox, wrapping and growing the ring, leave both in the same order.
   [Some x] pushes, [None] pops, -1 clears and -2 transfers. *)
let prop_mailbox_matches_queue =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun x -> Some x) nat);
          (4, return None);
          (1, return (Some (-1)));
          (1, return (Some (-2)));
        ])
  in
  let print = function Some x -> string_of_int x | None -> "pop" in
  QCheck.Test.make ~name:"mailbox matches Stdlib.Queue" ~count:500
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (0 -- 100) op))
    (fun ops ->
      let m = Mailbox.create ~filler:0 and q = Queue.create () in
      let m2 = Mailbox.create ~filler:0 and q2 = Queue.create () in
      let drain_m m = List.init (Mailbox.length m) (fun _ -> Mailbox.pop m) in
      let same () =
        Mailbox.length m = Queue.length q && Mailbox.is_empty m = Queue.is_empty q
      in
      List.for_all
        (fun op ->
          (match op with
           | Some -1 ->
             Mailbox.clear m;
             Queue.clear q
           | Some -2 ->
             Mailbox.transfer m m2;
             Queue.transfer q q2
           | Some x ->
             Mailbox.push x m;
             Queue.push x q
           | None ->
             if not (Queue.is_empty q) then
               if Mailbox.pop m <> Queue.pop q then failwith "popped a different value");
          same ())
        ops
      && drain_m m = List.of_seq (Queue.to_seq q)
      && drain_m m2 = List.of_seq (Queue.to_seq q2))

let suite =
  [
    ( "misc",
      [
        Alcotest.test_case "message ids increase" `Quick test_message_ids_increase;
        Alcotest.test_case "message src hive" `Quick test_message_src_hive;
        Alcotest.test_case "value sizes" `Quick test_value_sizes;
        Alcotest.test_case "value printing" `Quick test_value_pp;
        Alcotest.test_case "mapping builders" `Quick test_mapping_builders;
        Alcotest.test_case "a single-key map allocates 3 words" `Quick test_single_key_map_words;
        Alcotest.test_case "cell printing and order" `Quick test_cell_pp_and_order;
        Alcotest.test_case "series sparkline" `Quick test_series_sparkline;
        Alcotest.test_case "stats windows" `Quick test_stats_windows;
        Alcotest.test_case "latency percentiles" `Quick test_latency_percentiles;
        QCheck_alcotest.to_alcotest prop_take_window_matches_table;
        QCheck_alcotest.to_alcotest prop_mailbox_matches_queue;
      ] );
  ]
