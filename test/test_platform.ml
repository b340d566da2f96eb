(* The control platform: life of a message, collocation, merge,
   migration, local apps, failures. *)

open Helpers
module Registry = Beehive_core.Registry
module Traffic_matrix = Beehive_net.Traffic_matrix
module Stats = Beehive_core.Stats
module State = Beehive_core.State
module Raft_replication = Beehive_core.Raft_replication
module Outbox = Beehive_core.Outbox
module Store = Beehive_store.Store
module Mark = Beehive_store.Mark

let test_put_creates_bee_and_state () =
  let engine, platform = make_platform ~apps:[ kv_app () ] () in
  put platform ~from:1 ~key:"k1" ~value:5;
  drain engine;
  let bee = owner_exn platform ~app:"test.kv" "k1" in
  Alcotest.(check (option int)) "state" (Some 5) (store_value platform ~bee ~key:"k1");
  let view = Option.get (Platform.bee_view platform bee) in
  Alcotest.(check int) "created on origin hive" 1 view.Platform.view_hive;
  put platform ~from:1 ~key:"k1" ~value:3;
  drain engine;
  Alcotest.(check (option int)) "accumulates" (Some 8) (store_value platform ~bee ~key:"k1")

let test_same_key_same_bee_any_origin () =
  let engine, platform = make_platform ~apps:[ kv_app () ] () in
  put platform ~from:1 ~key:"k" ~value:1;
  drain engine;
  let bee1 = owner_exn platform ~app:"test.kv" "k" in
  (* Inject the same key from a different hive: must reach the same bee. *)
  put platform ~from:3 ~key:"k" ~value:1;
  drain engine;
  let bee2 = owner_exn platform ~app:"test.kv" "k" in
  Alcotest.(check int) "same bee" bee1 bee2;
  Alcotest.(check (option int)) "both applied" (Some 2) (store_value platform ~bee:bee1 ~key:"k")

let test_different_keys_shard () =
  let engine, platform = make_platform ~apps:[ kv_app () ] () in
  for i = 0 to 7 do
    put platform ~from:(i mod 4) ~key:(Printf.sprintf "k%d" i) ~value:1
  done;
  drain engine;
  let bees =
    List.init 8 (fun i -> owner_exn platform ~app:"test.kv" (Printf.sprintf "k%d" i))
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check int) "8 distinct bees" 8 (List.length bees);
  (* Bees live on the hive their first message originated from. *)
  List.iteri
    (fun i bee ->
      let v = Option.get (Platform.bee_view platform bee) in
      Alcotest.(check int) (Printf.sprintf "bee %d placement" i) (i mod 4) v.Platform.view_hive)
    (List.init 8 (fun i -> owner_exn platform ~app:"test.kv" (Printf.sprintf "k%d" i)))

let test_whole_dict_merges_bees () =
  let engine, platform =
    make_platform ~apps:[ kv_app ~with_whole_dict_reader:true () ] ()
  in
  for i = 0 to 5 do
    put platform ~from:(i mod 4) ~key:(Printf.sprintf "k%d" i) ~value:1
  done;
  drain engine;
  Alcotest.(check int) "6 bees before" 6
    (List.length
       (List.filter
          (fun v -> v.Platform.view_app = "test.kv" && not v.Platform.view_is_local)
          (Platform.live_bees platform)));
  (* The whole-dict reader forces collocation of every cell. *)
  Platform.inject platform ~from:(Channels.Hive 2) ~kind:k_get_all Get_all;
  drain engine;
  let bees =
    List.filter
      (fun v -> v.Platform.view_app = "test.kv" && not v.Platform.view_is_local)
      (Platform.live_bees platform)
  in
  Alcotest.(check int) "merged into one" 1 (List.length bees);
  let mega = (List.hd bees).Platform.view_id in
  Alcotest.(check int) "merge counter" 5 (Platform.total_bee_merges platform);
  (* No state was lost in the merge. *)
  for i = 0 to 5 do
    Alcotest.(check (option int))
      (Printf.sprintf "k%d survived" i)
      (Some 1)
      (store_value platform ~bee:mega ~key:(Printf.sprintf "k%d" i))
  done;
  Alcotest.(check (option int)) "reader ran" (Some 6) (store_value platform ~bee:mega ~key:"__total");
  (* New keys keep landing on the merged bee. *)
  put platform ~from:3 ~key:"k-late" ~value:7;
  drain engine;
  Alcotest.(check int) "late key joins mega bee" mega (owner_exn platform ~app:"test.kv" "k-late");
  Registry.check_invariant (Platform.registry platform)

(* The read path [Platform.read] and [Platform.read_dict] replaced, kept
   as their oracle: find an owner, copy its whole state, scan the copy. *)
let scan_read platform ~app ~dict ~key =
  match Platform.find_owner platform ~app (Cell.cell dict key) with
  | None -> None
  | Some bee ->
    List.find_map
      (fun (d, k, v) -> if String.equal d dict && String.equal k key then Some v else None)
      (Platform.bee_state_entries platform bee)

let dict_entries platform ~dict bee =
  List.filter_map
    (fun (d, k, v) -> if String.equal d dict then Some (k, v) else None)
    (Platform.bee_state_entries platform bee)

(* The union of every owner's entries of [dict], in key order. *)
let scan_dict platform ~app ~dict =
  List.concat_map
    (fun v ->
      if String.equal v.Platform.view_app app then dict_entries platform ~dict v.Platform.view_id
      else [])
    (Platform.live_bees platform)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let value = Alcotest.testable Value.pp ( = )

let test_reads_follow_ownership () =
  let app = "test.kv" and dict = "store" in
  let engine, platform =
    make_platform ~apps:[ kv_app ~with_whole_dict_reader:true () ] ()
  in
  let keys = List.init 6 (Printf.sprintf "k%d") in
  let check_reads step =
    List.iter
      (fun key ->
        Alcotest.(check (option value))
          (Printf.sprintf "%s: read %s" step key)
          (scan_read platform ~app ~dict ~key)
          (Platform.read platform ~app ~dict ~key))
      ("absent" :: "__total" :: keys);
    let union = scan_dict platform ~app ~dict in
    Alcotest.(check (list (pair string value)))
      (step ^ ": read_dict") union
      (Platform.read_dict platform ~app ~dict);
    union
  in
  List.iteri (fun i key -> put platform ~from:(i mod 4) ~key ~value:(i + 1)) keys;
  drain engine;
  let owners = Registry.owners_of_dict (Platform.registry platform) ~app ~dict in
  Alcotest.(check int) "keys split over six bees" 6 (List.length owners);
  let union = check_reads "split" in
  Alcotest.(check int) "read_dict sees every owner's key" 6 (List.length union);
  (* Reading only the lowest-id owner, as a whole-dict reader must not,
     drops the other owners' keys. *)
  let lowest = Option.get (Platform.find_owner platform ~app (Cell.whole dict)) in
  Alcotest.(check int) "the lowest owner holds one key" 1
    (List.length (dict_entries platform ~dict lowest));
  Platform.inject platform ~from:(Channels.Hive 2) ~kind:k_get_all Get_all;
  drain engine;
  let winner =
    match Registry.owners_of_dict (Platform.registry platform) ~app ~dict with
    | [ b ] -> b
    | l -> Alcotest.failf "merge left %d owners" (List.length l)
  in
  Alcotest.(check int) "merged: six keys and the total" 7 (List.length (check_reads "merged"));
  let to_hive = ((Option.get (Platform.bee_view platform winner)).Platform.view_hive + 1) mod 4 in
  Alcotest.(check bool) "winner migrates" true
    (Platform.migrate_bee platform ~bee:winner ~to_hive ~reason:"test");
  drain engine;
  Alcotest.(check int) "migrated winner still owns the dict" to_hive
    (Option.get (Platform.bee_view platform winner)).Platform.view_hive;
  put platform ~from:1 ~key:"k0" ~value:10;
  drain engine;
  ignore (check_reads "migrated");
  Alcotest.(check (option value)) "write after migration" (Some (Value.V_int 11))
    (Platform.read platform ~app ~dict ~key:"k0")

(* A merge leaves the losing bees dead, but the messages they handled
   still count towards the cluster-wide latency percentiles. The oracle
   histogram records each handler's own view of the same delay (the
   handler runs at the instant its message's processing starts). *)
let test_latency_percentile_counts_merged_bees () =
  let oracle = Stats.latency () in
  let app = kv_app ~with_whole_dict_reader:true () in
  let timed (h : App.handler) =
    {
      h with
      App.rcv =
        (fun ctx msg ->
          Stats.record_latency oracle (Simtime.diff (Context.now ctx) msg.Message.sent_at);
          h.App.rcv ctx msg);
    }
  in
  let engine, platform =
    make_platform ~apps:[ { app with App.handlers = List.map timed app.App.handlers } ] ()
  in
  for i = 0 to 7 do
    put platform ~from:(i mod 4) ~key:(Printf.sprintf "k%d" i) ~value:1
  done;
  drain engine;
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:k_get_all Get_all;
  drain engine;
  Alcotest.(check int) "merges" 7 (Platform.total_bee_merges platform);
  Alcotest.(check int) "every message handled" 9 (Platform.total_processed platform);
  List.iter
    (fun p ->
      Alcotest.(check (option int))
        (Printf.sprintf "p%g over every handled message" (100.0 *. p))
        (Stats.latency_percentile oracle p)
        (Platform.message_latency_percentile platform p))
    [ 0.5; 0.99; 1.0 ]

let test_access_violation_aborts () =
  let app =
    App.create ~name:"test.bad" ~dicts:[ "store" ]
      [
        App.handler ~kind:k_put
          ~map:(fun msg ->
            match msg.Message.payload with
            | Put { p_key; _ } -> Mapping.with_key "store" p_key
            | _ -> Mapping.Drop)
          (fun ctx msg ->
            match msg.Message.payload with
            | Put { p_key; p_value } ->
              Context.set ctx ~dict:"store" ~key:p_key (Value.V_int p_value);
              (* Out-of-cell write: must raise and roll everything back. *)
              Context.set ctx ~dict:"store" ~key:"other-key" (Value.V_int 1)
            | _ -> ());
      ]
  in
  let engine, platform = make_platform ~apps:[ app ] () in
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:k_put (Put { p_key = "a"; p_value = 1 });
  drain engine;
  let bee = owner_exn platform ~app:"test.bad" "a" in
  Alcotest.(check (option int)) "first write rolled back too" None
    (store_value platform ~bee ~key:"a");
  (* Containment: every attempt in the retry budget aborts (and is
     counted), then the message is quarantined instead of killing the
     engine. *)
  Alcotest.(check int) "error recorded per attempt" Beehive_core.Outbox.retry_budget
    (Platform.handler_faults platform);
  Alcotest.(check int) "message quarantined" 1
    (List.length (Platform.quarantined_messages platform ~bee));
  (* The bee stays live for well-formed traffic. *)
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:k_put
    (Put { p_key = "other-key"; p_value = 9 });
  drain engine;
  Alcotest.(check int) "total quarantined unchanged" 1 (Platform.total_quarantined platform)

let test_foreach_fanout () =
  let hits = ref [] in
  let app =
    App.create ~name:"test.fan" ~dicts:[ "store" ]
      [
        App.handler ~kind:k_put
          ~map:(fun msg ->
            match msg.Message.payload with
            | Put { p_key; _ } -> Mapping.with_key "store" p_key
            | _ -> Mapping.Drop)
          (fun ctx msg ->
            match msg.Message.payload with
            | Put { p_key; p_value } -> Context.set ctx ~dict:"store" ~key:p_key (Value.V_int p_value)
            | _ -> ());
        App.handler ~kind:k_get_all
          ~map:(fun _ -> Mapping.Foreach "store")
          (fun ctx _ ->
            Context.iter_dict ctx ~dict:"store" (fun k _ ->
                hits := (Context.bee_id ctx, k) :: !hits));
      ]
  in
  let engine, platform = make_platform ~apps:[ app ] () in
  for i = 0 to 3 do
    put platform ~from:i ~key:(Printf.sprintf "k%d" i) ~value:i
  done;
  drain engine;
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:k_get_all Get_all;
  drain engine;
  Alcotest.(check int) "one invocation per owning bee" 4 (List.length !hits);
  let keys = List.map snd !hits |> List.sort String.compare in
  Alcotest.(check (list string)) "each bee saw exactly its key" [ "k0"; "k1"; "k2"; "k3" ] keys;
  let bees = List.map fst !hits |> List.sort_uniq Int.compare in
  Alcotest.(check int) "4 distinct bees" 4 (List.length bees)

(* Routing is a Foreach leg's linearization point: the leg visits the
   cells its target held when the tick was routed, whatever happens to
   the target before the leg runs. The app keys [Put]s, ticks every
   owner of "store" with a [Noop] Foreach that counts its visits per
   key, and merges every owner with a whole-dictionary [Get_all]. *)
let foreach_visits_app visits =
  let count k =
    Hashtbl.replace visits k (1 + Option.value ~default:0 (Hashtbl.find_opt visits k))
  in
  App.create ~name:"test.visits" ~dicts:[ "store" ]
    [
      App.handler ~kind:k_put
        ~map:(fun msg ->
          match msg.Message.payload with
          | Put { p_key; _ } -> Mapping.with_key "store" p_key
          | _ -> Mapping.Drop)
        (fun ctx msg ->
          match msg.Message.payload with
          | Put { p_key; p_value } -> Context.set ctx ~dict:"store" ~key:p_key (Value.V_int p_value)
          | _ -> ());
      App.handler ~kind:k_noop
        ~map:(fun _ -> Mapping.Foreach "store")
        (fun ctx _ -> Context.iter_dict ctx ~dict:"store" (fun k _ -> count k));
      App.handler ~kind:k_get_all ~map:(fun _ -> Mapping.whole_dict "store") (fun _ _ -> ());
    ]

let visit_keys = List.init 8 (Printf.sprintf "k%d")

(* Eight one-key bees over four hives, then a Foreach tick injected at
   hive 0 and [disturb] at the same instant, while the tick's legs are in
   flight; every key must be visited exactly once. *)
let check_foreach_visits_each_cell_once ~disturb =
  let visits = Hashtbl.create 8 in
  let engine, platform = make_platform ~apps:[ foreach_visits_app visits ] () in
  List.iteri (fun i key -> put platform ~from:(i mod 4) ~key ~value:i) visit_keys;
  drain engine;
  Alcotest.(check int) "one bee per key" 8
    (List.length
       (Registry.owners_of_dict (Platform.registry platform) ~app:"test.visits" ~dict:"store"));
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:k_noop (Noop 0);
  disturb platform;
  drain engine;
  Alcotest.(check (list (pair string int)))
    "every key visited once"
    (List.map (fun k -> (k, 1)) visit_keys)
    (List.map (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt visits k))) visit_keys);
  platform

(* The merge forwards the losers' legs to the winner, whose state then
   holds every key: each leg still visits only its own target's key. *)
let test_foreach_survives_merge () =
  let platform =
    check_foreach_visits_each_cell_once ~disturb:(fun platform ->
        Platform.inject platform ~from:(Channels.Hive 2) ~kind:k_get_all Get_all)
  in
  Alcotest.(check int) "merged into one bee" 1
    (List.length
       (Registry.owners_of_dict (Platform.registry platform) ~app:"test.visits" ~dict:"store"))

let test_foreach_survives_migration () =
  let platform =
    check_foreach_visits_each_cell_once ~disturb:(fun platform ->
        List.iter
          (fun key ->
            let bee = owner_exn platform ~app:"test.visits" key in
            let hive = (Option.get (Platform.bee_view platform bee)).Platform.view_hive in
            Alcotest.(check bool) ("migrate " ^ key) true
              (Platform.migrate_bee platform ~bee ~to_hive:((hive + 1) mod 4) ~reason:"test"))
          visit_keys)
  in
  Alcotest.(check int) "every bee moved" 8 (List.length (Platform.migrations platform))

(* A bee stopped for two reasons stays stopped until both end. Key "a"
   lives on hive 0 and key "b" on hive 1, whose owner is busy in a 5 ms
   increment. In one instant "a"'s owner starts moving to hive 1 and a
   two-key increment arrives, merging the owners with "a"'s bee as the
   winner. The winner's move lands first; it must still wait for its
   busy loser to fold in, or it increments a "b" it does not hold yet and
   the fold-in overwrites that write. *)
let test_migrating_merge_winner_waits () =
  let slow = Simtime.of_ms 5 in
  let incr ctx key =
    Context.update ctx ~dict:"store" ~key (function
      | Some (Value.V_int n) -> Some (Value.V_int (n + 1))
      | _ -> Some (Value.V_int 1))
  in
  let app =
    App.create ~name:"test.pair" ~dicts:[ "store" ]
      [
        App.handler ~kind:k_put
          ~map:(fun msg ->
            match msg.Message.payload with
            | Put { p_key; _ } -> Mapping.with_key "store" p_key
            | _ -> Mapping.Drop)
          (fun ctx msg ->
            match msg.Message.payload with Put { p_key; _ } -> incr ctx p_key | _ -> ());
        App.handler ~kind:k_noop ~cost:(fun _ -> slow)
          ~map:(fun _ -> Mapping.with_key "store" "b")
          (fun ctx _ -> incr ctx "b");
        App.handler ~kind:k_get_all
          ~map:(fun _ -> Mapping.with_keys [ ("store", "a"); ("store", "b") ])
          (fun ctx _ ->
            incr ctx "a";
            incr ctx "b");
      ]
  in
  let engine, platform = make_platform ~n_hives:2 ~apps:[ app ] () in
  put platform ~from:0 ~key:"a" ~value:1;
  put platform ~from:1 ~key:"b" ~value:1;
  drain engine;
  let a = owner_exn platform ~app:"test.pair" "a" in
  Platform.inject platform ~from:(Channels.Hive 1) ~kind:k_noop (Noop 0);
  run_for engine 0.001;
  Alcotest.(check bool) "move admitted" true
    (Platform.migrate_bee platform ~bee:a ~to_hive:1 ~reason:"test");
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:k_get_all Get_all;
  drain engine;
  Alcotest.(check int) "one merge" 1 (Platform.total_bee_merges platform);
  let value key = store_value platform ~bee:(owner_exn platform ~app:"test.pair" key) ~key in
  Alcotest.(check (option int)) "a" (Some 2) (value "a");
  Alcotest.(check (option int)) "b: put, slow increment, pair increment" (Some 3) (value "b");
  Alcotest.(check int) "nothing left holding" 0 (Platform.paused_bees platform)

let test_local_app_per_hive () =
  let seen = ref [] in
  let app =
    App.create ~name:"test.local" ~dicts:[ "scratch" ]
      [
        App.handler ~kind:k_noop
          ~map:(fun _ -> Mapping.Local)
          (fun ctx _ -> seen := Context.hive_id ctx :: !seen);
      ]
  in
  let engine, platform = make_platform ~n_hives:3 ~apps:[ app ] () in
  (* An ordinary message runs the local handler on its origin hive only. *)
  Platform.inject platform ~from:(Channels.Hive 2) ~kind:k_noop (Noop 0);
  drain engine;
  Alcotest.(check (list int)) "origin hive only" [ 2 ] !seen;
  seen := [];
  (* A system (timer) message runs it on every hive. *)
  Platform.emit_system platform ~hive:0 ~size:64 ~kind:k_noop (Noop 1);
  drain engine;
  Alcotest.(check (list int)) "all hives" [ 0; 1; 2 ] (List.sort Int.compare !seen);
  (* Local bees are per-hive and pinned. *)
  let local_bee hive =
    List.find
      (fun v -> v.Platform.view_app = "test.local" && v.Platform.view_hive = hive)
      (Platform.live_bees platform)
  in
  let b0 = (local_bee 0).Platform.view_id and b1 = (local_bee 1).Platform.view_id in
  Alcotest.(check bool) "distinct" true (b0 <> b1);
  Alcotest.(check bool) "local" true (local_bee 0).Platform.view_is_local;
  Alcotest.(check bool) "pinned: not migratable" false
    (Platform.migrate_bee platform ~bee:b0 ~to_hive:1 ~reason:"test")

(* Timer ticks originate on the lowest-numbered member hive that has not
   crashed: a crash of hive 0 must not silence the app's timers on the
   survivors, and with every member crashed the tick is skipped rather
   than dropped as a dead-origin message. *)
let test_timers_survive_hive_zero_crash () =
  let seen = Array.make 3 0 in
  let app =
    App.create ~name:"test.ticker"
      ~timers:[ App.timer ~kind:k_noop ~period:(Simtime.of_ms 10) (fun ~now:_ -> Noop 0) ]
      [
        App.handler ~kind:k_noop
          ~map:(fun _ -> Mapping.Local)
          (fun ctx _ -> seen.(Context.hive_id ctx) <- seen.(Context.hive_id ctx) + 1);
      ]
  in
  let engine, platform = make_platform ~n_hives:3 ~apps:[ app ] () in
  run_for engine 0.1;
  Alcotest.(check bool) "every hive ticks" true (Array.for_all (fun n -> n >= 9) seen);
  (* Let the deliveries in flight at the crash settle (a period is 10 ms). *)
  let settle () = run_for engine 0.005 in
  Platform.fail_hive platform 0;
  settle ();
  let dropped = Platform.total_dropped platform in
  Array.fill seen 0 3 0;
  run_for engine 0.1;
  Alcotest.(check int) "the crashed hive is silent" 0 seen.(0);
  Alcotest.(check bool) "survivors keep ticking" true (seen.(1) >= 9 && seen.(2) >= 9);
  Alcotest.(check int) "no tick dropped" dropped (Platform.total_dropped platform);
  Platform.fail_hive platform 1;
  Platform.fail_hive platform 2;
  settle ();
  let dropped = Platform.total_dropped platform in
  run_for engine 0.1;
  Alcotest.(check int) "all members crashed: ticks skipped, not dropped" dropped
    (Platform.total_dropped platform)

let test_migration_preserves_state_and_order () =
  let engine, platform = make_platform ~apps:[ kv_app () ] () in
  put platform ~from:1 ~key:"k" ~value:1;
  drain engine;
  let bee = owner_exn platform ~app:"test.kv" "k" in
  (* Queue more work, then migrate mid-stream. *)
  put platform ~from:1 ~key:"k" ~value:10;
  Alcotest.(check bool) "migration accepted" true
    (Platform.migrate_bee platform ~bee ~to_hive:3 ~reason:"test");
  put platform ~from:1 ~key:"k" ~value:100;
  put platform ~from:2 ~key:"k" ~value:1000;
  drain engine;
  let view = Option.get (Platform.bee_view platform bee) in
  Alcotest.(check int) "moved" 3 view.Platform.view_hive;
  Alcotest.(check (option int)) "no message lost" (Some 1111) (store_value platform ~bee ~key:"k");
  (match Platform.migrations platform with
  | [ m ] ->
    Alcotest.(check int) "log src" 1 m.Platform.mig_src;
    Alcotest.(check int) "log dst" 3 m.Platform.mig_dst;
    Alcotest.(check string) "log reason" "test" m.Platform.mig_reason;
    Alcotest.(check bool) "bytes accounted" true (m.Platform.mig_bytes > 0)
  | l -> Alcotest.failf "expected 1 migration, got %d" (List.length l));
  (* Ownership survives: further puts keep hitting the same bee. *)
  put platform ~from:0 ~key:"k" ~value:1;
  drain engine;
  Alcotest.(check int) "still owner" bee (owner_exn platform ~app:"test.kv" "k")

let test_migration_traffic_accounted () =
  let engine, platform = make_platform ~apps:[ kv_app () ] () in
  put platform ~from:1 ~key:"big" ~value:42;
  drain engine;
  let bee = owner_exn platform ~app:"test.kv" "big" in
  let matrix = Channels.matrix (Platform.channels platform) in
  let before = Beehive_net.Traffic_matrix.bytes matrix ~src:1 ~dst:2 in
  ignore (Platform.migrate_bee platform ~bee ~to_hive:2 ~reason:"move");
  drain engine;
  let after = Beehive_net.Traffic_matrix.bytes matrix ~src:1 ~dst:2 in
  Alcotest.(check bool) "state bytes crossed 1->2" true (after > before)

let test_migration_rejections () =
  let pinned_app = { (kv_app ~name:"test.pinned" ()) with App.pinned = true } in
  let engine, platform = make_platform ~apps:[ kv_app (); pinned_app ] () in
  put platform ~from:1 ~key:"k" ~value:1;
  drain engine;
  let bee = owner_exn platform ~app:"test.kv" "k" in
  Alcotest.(check bool) "unknown bee" false
    (Platform.migrate_bee platform ~bee:9999 ~to_hive:2 ~reason:"x");
  Alcotest.(check bool) "same hive" false
    (Platform.migrate_bee platform ~bee ~to_hive:1 ~reason:"x");
  Alcotest.(check bool) "bad hive" false
    (Platform.migrate_bee platform ~bee ~to_hive:17 ~reason:"x");
  Alcotest.(check bool) "movable" true
    (Platform.migrate_bee platform ~bee ~to_hive:2 ~reason:"x");
  let pinned = owner_exn platform ~app:"test.pinned" "k" in
  Alcotest.(check bool) "pinned" false
    (Platform.migrate_bee platform ~bee:pinned ~to_hive:2 ~reason:"x")

let test_capacity_limit () =
  let engine = Engine.create () in
  let cfg = { (Platform.default_config ~n_hives:2) with Platform.hive_capacity = 2 } in
  let platform = Platform.create engine cfg in
  Platform.register_app platform (kv_app ());
  Platform.start platform;
  put platform ~from:0 ~key:"a" ~value:1;
  put platform ~from:0 ~key:"b" ~value:1;
  put platform ~from:1 ~key:"c" ~value:1;
  drain engine;
  let bee_c = owner_exn platform ~app:"test.kv" "c" in
  (* Hive 0 already hosts 2 cells: the move must be refused. *)
  Alcotest.(check bool) "over capacity" false
    (Platform.migrate_bee platform ~bee:bee_c ~to_hive:0 ~reason:"x")

let test_replication_failover () =
  let engine, platform = make_platform ~n_hives:3 ~apps:[ replicated_kv_app () ] () in
  ignore (Raft_replication.install platform ());
  run_for engine 2.0;  (* let the group leaders elect *)
  put platform ~from:1 ~key:"k" ~value:21;
  put platform ~from:1 ~key:"k" ~value:21;
  run_for engine 3.0;
  let bee = owner_exn platform ~app:"test.kv" "k" in
  Platform.fail_hive platform 1;
  Alcotest.(check bool) "hive dead" false (Platform.hive_alive platform 1);
  let view = Option.get (Platform.bee_view platform bee) in
  Alcotest.(check bool) "failed over" true (view.Platform.view_hive <> 1);
  Alcotest.(check bool) "alive" true view.Platform.view_alive;
  Alcotest.(check (option int)) "state recovered from replica" (Some 42)
    (store_value platform ~bee ~key:"k");
  (* The bee keeps working on its new hive. *)
  put platform ~from:0 ~key:"k" ~value:8;
  drain engine;
  Alcotest.(check (option int)) "still serving" (Some 50) (store_value platform ~bee ~key:"k")

(* A recoverable bee with no placeable hive left to fail over to must
   not be revived on the hive that just died: it takes the unrecoverable
   path (killed, without durability). *)
let test_failover_needs_a_live_target () =
  let engine, platform = make_platform ~n_hives:1 ~apps:[ replicated_kv_app () ] () in
  let replicator =
    {
      Beehive_core.Dispatch.commit = ignore;
      acked = (fun ~bee:_ ~seq:_ -> ());
      recover =
        (fun ~bee ->
          Some
            {
              Beehive_core.Recovery.entries = Platform.bee_state_entries platform bee;
              emits = [];
              inbox = [];
            });
    }
  in
  Platform.set_replicator platform replicator;
  Alcotest.check_raises "one replicator per platform"
    (Invalid_argument "Platform.set_replicator: already set") (fun () ->
      Platform.set_replicator platform replicator);
  put platform ~from:0 ~key:"k" ~value:5;
  drain engine;
  let bee = owner_exn platform ~app:"test.kv" "k" in
  Platform.fail_hive platform 0;
  let view = Option.get (Platform.bee_view platform bee) in
  Alcotest.(check bool) "not alive on the dead hive" false
    (view.Platform.view_alive && view.Platform.view_hive = 0);
  Alcotest.(check bool) "killed" false view.Platform.view_alive

let test_no_replication_loses_bee () =
  let engine, platform = make_platform ~n_hives:3 ~apps:[ kv_app () ] () in
  put platform ~from:1 ~key:"k" ~value:1;
  drain engine;
  let bee = owner_exn platform ~app:"test.kv" "k" in
  Platform.fail_hive platform 1;
  let dead = Option.get (Platform.bee_view platform bee) in
  Alcotest.(check bool) "bee dead" false dead.Platform.view_alive;
  Alcotest.(check bool) "cells released" true
    (Platform.find_owner platform ~app:"test.kv" (Cell.cell "store" "k") = None);
  (* A new message re-creates ownership elsewhere. *)
  put platform ~from:2 ~key:"k" ~value:9;
  drain engine;
  let bee2 = owner_exn platform ~app:"test.kv" "k" in
  Alcotest.(check bool) "new bee" true (bee2 <> bee);
  Alcotest.(check (option int)) "fresh state (old lost)" (Some 9)
    (store_value platform ~bee:bee2 ~key:"k")

(* The paper's core guarantee: random multi-key messages with
   transitively intersecting mapped cells are all handled by one bee. *)
let prop_intersecting_messages_same_bee =
  QCheck.Test.make ~name:"transitively intersecting cell groups end on one bee" ~count:50
    QCheck.(list_of_size Gen.(1 -- 12) (pair (int_bound 5) (int_bound 5)))
    (fun pairs ->
      let app =
        App.create ~name:"test.multi" ~dicts:[ "store" ]
          [
            App.handler ~kind:"test.multi_put"
              ~map:(fun msg ->
                match msg.Message.payload with
                | Put { p_key; _ } ->
                  Mapping.Cells
                    (Cell.Set.of_list (List.map (Cell.cell "store") (String.split_on_char ',' p_key)))
                | _ -> Mapping.Drop)
              (fun ctx msg ->
                match msg.Message.payload with
                | Put { p_key; _ } ->
                  List.iter
                    (fun k -> Context.set ctx ~dict:"store" ~key:k (Value.V_int 1))
                    (String.split_on_char ',' p_key)
                | _ -> ());
          ]
      in
      let engine, platform = make_platform ~apps:[ app ] () in
      List.iteri
        (fun i (a, b) ->
          Platform.inject platform
            ~from:(Channels.Hive (i mod 4))
            ~kind:"test.multi_put"
            (Put { p_key = Printf.sprintf "%d,%d" a b; p_value = 1 }))
        pairs;
      drain engine;
      Registry.check_invariant (Platform.registry platform);
      (* Union-find over the pairs: keys in one component must share an
         owner bee. *)
      let parent = Array.init 6 Fun.id in
      let rec find x = if parent.(x) = x then x else find parent.(x) in
      let union a b = parent.(find a) <- find b in
      List.iter (fun (a, b) -> union a b) pairs;
      let owner k =
        Platform.find_owner platform ~app:"test.multi" (Cell.cell "store" (string_of_int k))
      in
      let touched =
        List.concat_map (fun (a, b) -> [ a; b ]) pairs |> List.sort_uniq Int.compare
      in
      (* Same union-find component -> same owning bee. *)
      List.for_all
        (fun x ->
          List.for_all
            (fun y -> (not (find x = find y)) || owner x = owner y)
            touched)
        touched)

let test_counters_and_quiescence () =
  let engine, platform = make_platform ~apps:[ kv_app () ] () in
  let quiescent () =
    List.for_all (fun v -> v.Platform.view_queue = 0) (Platform.live_bees platform)
  in
  Alcotest.(check bool) "quiescent at start" true (quiescent ());
  put platform ~from:0 ~key:"a" ~value:1;
  put platform ~from:1 ~key:"b" ~value:1;
  drain engine;
  Alcotest.(check bool) "quiescent after drain" true (quiescent ());
  Alcotest.(check int) "processed" 2 (Platform.total_processed platform);
  (* Each put creates its key's bee on its origin hive: one lock-service
     round trip, 48 B each way between that hive and the lock master on
     hive 0. Hive 0's diagonal holds its own round trip and its 64 B put
     (160 B); its row and its column each add one 48 B leg of hive 1's
     round trip. *)
  Alcotest.(check int) "lock rpcs charged" 2 (Platform.total_lock_rpcs platform);
  let m = Channels.matrix (Platform.channels platform) in
  Alcotest.(check (float 0.)) "hive 0 row bytes" 208. (Traffic_matrix.row_bytes m 0);
  Alcotest.(check (float 0.)) "hive 0 column bytes" 208. (Traffic_matrix.col_bytes m 0)

(* A bee's completion event outlives a crash: the hive crashes while
   the slow handler of [Noop 1] is scheduled, restarts at once, and the
   revived bee dispatches [Noop 2] well before the stale completion's
   time. The stale event must still run, and as a no-op: the crash
   voided [Noop 1] (an injected message is never replayed), and [Noop 2]
   is handled exactly once, at its own completion. *)
let test_stale_completion_is_a_noop () =
  let handled = Array.make 3 0 in
  let slow = Simtime.of_us 10_300 and long = Simtime.of_ms 20 in
  let app =
    App.create ~name:"slow" ~dicts:[ "d" ]
      [
        App.handler ~kind:k_noop
          ~cost:(fun m -> match m.Message.payload with Noop 1 -> slow | _ -> long)
          ~map:(fun _ -> Mapping.with_key "d" "k")
          (fun _ m ->
            match m.Message.payload with Noop n -> handled.(n) <- handled.(n) + 1 | _ -> ());
      ]
  in
  let engine, platform = durable_platform ~n_hives:1 ~apps:[ app ] () in
  let at_us us = Engine.run_until engine (Simtime.of_us us) in
  let from = Channels.Hive 0 in
  Platform.inject platform ~from ~kind:k_noop (Noop 1);
  at_us 1_000;
  Platform.crash_hive platform 0;
  Platform.restart_hive platform 0;
  Platform.inject platform ~from ~kind:k_noop (Noop 2);
  at_us 10_200;
  let events = Engine.events_executed engine in
  (* No timer fires between whole milliseconds: the one event in this
     window is the stale completion, due at 10.3 ms plus delivery. *)
  at_us 10_400;
  Alcotest.(check int) "the stale completion ran" (events + 1) (Engine.events_executed engine);
  Alcotest.(check int) "and handled nothing" 0 (Platform.total_processed platform);
  at_us 30_000;
  Alcotest.(check (array int)) "handler runs per message" [| 0; 0; 1 |] handled;
  Alcotest.(check int) "messages processed" 1 (Platform.total_processed platform)

(* The one-hive two-app chain the allocation pins run: an injected ping
   goes to app a, which emits a pong, and app b sets one key. *)
let ping_pong_apps () =
  let on kind ~key rcv =
    App.handler ~kind ~map:(fun _ -> Mapping.with_key "d" key) rcv
  in
  let one = Value.V_int 1 in
  [
    App.create ~name:"a" ~dicts:[ "d" ]
      [ on "test.ping" ~key:"a" (fun ctx _ -> Context.emit ctx ~kind:"test.pong" (Noop 0)) ];
    App.create ~name:"b" ~dicts:[ "d" ]
      [ on "test.pong" ~key:"b" (fun ctx _ -> Context.set ctx ~dict:"d" ~key:"b" one) ];
  ]

(* Minor words per handled message over 1,000 pings after a first one
   that creates both bees. *)
let words_per_message platform step =
  step ();
  let handled_before = Platform.total_processed platform in
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    step ()
  done;
  let words = Gc.minor_words () -. before in
  let handled = Platform.total_processed platform - handled_before in
  Alcotest.(check int) "messages handled" 2_000 handled;
  words /. float_of_int handled

let check_words_bound per_msg bound =
  if per_msg > bound then
    Alcotest.failf "%.1f words per handled message, bound %.1f" per_msg bound

(* What the runtime allocates to carry a message through dispatch, the
   handler's transaction and routing, counted exactly on the ping-pong
   chain. The bound is the measured cost (OCaml 5.1.1, native code);
   raising it needs a reason. *)
let runtime_words_per_message_bound = 30.0

let test_runtime_words_per_message () =
  let engine, platform = make_platform ~n_hives:1 ~apps:(ping_pong_apps ()) () in
  let ping = Noop 0 and from = Channels.Hive 0 in
  let step () =
    Platform.inject platform ~from ~kind:"test.ping" ping;
    Engine.run engine
  in
  check_words_bound (words_per_message platform step) runtime_words_per_message_bound

(* The same chain with an emit hook installed: each emitting completion
   shows the hook the child's own source and allocates only the
   parent's [Some]. The bound is the measured cost (OCaml 5.1.1, native
   code); raising it needs a reason. *)
let hooked_words_per_message_bound = 31.0

let test_hooked_words_per_message () =
  let engine, platform = make_platform ~n_hives:1 ~apps:(ping_pong_apps ()) () in
  let emits = ref 0 in
  Platform.on_emit platform (fun ~parent:_ ~child:_ ~emitter:_ -> incr emits);
  let ping = Noop 0 and from = Channels.Hive 0 in
  let step () =
    Platform.inject platform ~from ~kind:"test.ping" ping;
    Engine.run engine
  in
  let per_msg = words_per_message platform step in
  Alcotest.(check int) "the hook saw every ping and pong" 2_002 !emits;
  check_words_bound per_msg hooked_words_per_message_bound

(* The same chain on a durable platform, where every message also
   crosses the WAL group commit, the transactional outbox and the acks.
   [Engine.run] would never return (the platform's 5 ms scrub timer keeps
   firing), so each step runs 5 ms of simulated time: long enough for
   the pong's commit, fsync, dispatch and ack. The bound is the measured
   cost (OCaml 5.1.1, native code); raising it needs a reason. *)
let durable_words_per_message_bound = 56.828

let test_durable_words_per_message () =
  let engine, platform = durable_platform ~n_hives:1 ~apps:(ping_pong_apps ()) () in
  let ping = Noop 0 and from = Channels.Hive 0 in
  let step () =
    Platform.inject platform ~from ~kind:"test.ping" ping;
    Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_ms 5))
  in
  let per_msg = words_per_message platform step in
  Alcotest.(check int) "outbox drained" 0 (Platform.outbox_unacked_total platform);
  check_words_bound per_msg durable_words_per_message_bound

(* The receive half of exactly-once in the store allocates nothing per
   delivery once its arrays have grown: a mark lookup, unseen, pending or
   durable, and the commit of a consumed mark (into the bee's mark set
   and its hive's ack buffer), counted as what a record with a consumed
   mark costs beyond the same record without one (no compaction runs).
   The first 1,100 marks grow the set past the 900 the count adds. *)
let test_mark_bookkeeping_words () =
  let acks = ref 0 in
  let store =
    Store.create (Engine.create ())
      ~config:{ Store.snapshot_threshold_bytes = max_int }
      ~size_of:(fun (d, k, _) -> String.length d + String.length k)
      ~seq:Fun.id ~bytes:(fun _ -> 0)
      ~on_durable:(fun ~hive:_ ~acks:a _ -> acks := !acks + Mark.Acks.length a)
      ()
  in
  let mark seq = Mark.make ~sender:1 ~seq in
  let write = [ ("d", "k", Some 0) ] in
  let commit ~consumed first last =
    for seq = first to last do
      Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[]
        ~consumed:(if consumed then mark seq else Mark.none)
        write
    done;
    Store.flush store
  in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  commit ~consumed:true 1 1_100;
  commit ~consumed:false 1 900;
  Store.append store ~bee:0 ~hive:0 ~outbox:[] ~inbox:[] ~consumed:(mark 1_101) [];
  let lookups () =
    for seq = 1 to 1_102 do
      ignore (Store.inbox_mark store ~bee:0 (mark seq))
    done
  in
  Alcotest.(check (float 0.)) "mark lookups" 0. (words lookups);
  Store.flush store;
  let plain = words (fun () -> commit ~consumed:false 1 900) in
  let marked = words (fun () -> commit ~consumed:true 1_102 2_001) in
  Alcotest.(check (float 0.)) "consumed marks at commit" 0. (marked -. plain);
  Alcotest.(check int) "every consumed mark handed over" 2_001 !acks

(* A recheck that finds its sender down re-arms itself, so a sender whose
   hive crashed right after it dispatched a pong keeps one recheck
   going, every 2 ms. Each one takes the recheck, looks the entry up in
   the store and arms the next on the dispatch's lane: 0 words. *)
let test_recheck_words () =
  let engine, platform = durable_platform ~n_hives:1 ~apps:(ping_pong_apps ()) () in
  let store = Option.get (Platform.store platform) in
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:"test.ping" (Noop 0);
  let sender = ref (-1) in
  while
    !sender < 0 && Simtime.(Engine.now engine < of_ms 5)
  do
    Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_us 1));
    List.iter
      (fun (v : Platform.bee_view) ->
        let b = v.Platform.view_id in
        if Store.outbox_unacked store ~bee:b <> [] then sender := b)
      (Platform.live_bees platform)
  done;
  let e =
    match Store.outbox_unacked store ~bee:!sender with
    | [ e ] -> e
    | _ -> Alcotest.fail "one pong dispatched"
  in
  let first = Outbox.last_attempt e in
  Platform.crash_hive platform 0;
  let at k = Simtime.add first (Simtime.of_ms (2 * k)) in
  let worst = ref 0. and events = ref 0 in
  for k = 1 to 200 do
    Engine.run_until engine (Simtime.of_us (Simtime.to_us (at k) - 1));
    let executed = Engine.events_executed engine in
    let before = Gc.minor_words () in
    Engine.run_until engine (at k);
    worst := Float.max !worst (Gc.minor_words () -. before);
    events := !events + Engine.events_executed engine - executed
  done;
  Alcotest.(check int) "one recheck at each instant" 200 !events;
  Alcotest.(check (float 0.)) "words per recheck" 0. !worst;
  Alcotest.(check bool) "never re-dispatched" true (Simtime.equal first (Outbox.last_attempt e))

(* A Cells leg to an owner that takes it (nothing to claim, no lookup
   due) allocates only its delivery: no arrival closure and no plan
   record. Counted around [Platform.inject], which builds the message
   and routes it, less what building the same message costs (from a
   source built once: an injecting hive's source is shared); the legs
   wait on the engine's arrival lane until the run after the count. The
   same-hive leg is a plain post, the cross-hive one rides the healthy
   transport to the owner's hive after one cached lookup. The handler
   maps to a [Key], to a one-cell [Cells] and to a two-cell [Cells],
   each on its own platform: the Key path and the set walk alike. *)
let delivery_words = 7. (* [Bee.delivery]: six fields and a header *)

let cells_leg_words what mapping =
  let k_leg = "test.leg" in
  let app =
    App.create ~name:"leg" ~dicts:[ "d" ]
      [ App.handler ~kind:k_leg ~map:(fun _ -> mapping) (fun _ _ -> ()) ]
  in
  let engine, platform = make_platform ~n_hives:2 ~apps:[ app ] () in
  let payload = Noop 0 in
  let per_call f =
    for _ = 1 to 1_000 do
      f ()
    done;
    Engine.run engine;
    let before = Gc.minor_words () in
    for _ = 1 to 1_000 do
      f ()
    done;
    let words = (Gc.minor_words () -. before) /. 1_000. in
    Engine.run engine;
    words
  in
  let message from =
    let src = Message.From_endpoint from in
    fun () -> ignore (Message.make ~kind:k_leg ~src ~sent_at:(Engine.now engine) payload)
  in
  let leg from () = Platform.inject platform ~from ~kind:k_leg payload in
  (* The first leg creates the owner on hive 0. *)
  leg (Channels.Hive 0) ();
  Engine.run engine;
  List.iter
    (fun (where, from) ->
      let words = per_call (leg from) -. per_call (message from) in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s, %s: words beyond the message" what where)
        delivery_words words)
    [ ("same hive", Channels.Hive 0); ("cross hive", Channels.Hive 1) ];
  Alcotest.(check int) (what ^ ": every leg handled") 4_001 (Platform.total_processed platform);
  Alcotest.(check int) (what ^ ": one owner") 1 (List.length (Platform.live_bees platform))

let test_cells_leg_words () =
  cells_leg_words "key" (Mapping.with_key "d" "k");
  cells_leg_words "one-cell set" (Mapping.Cells (Cell.Set.singleton (Cell.cell "d" "k")));
  cells_leg_words "two-cell set"
    (Mapping.Cells (Cell.Set.of_list [ Cell.cell "d" "j"; Cell.cell "d" "k" ]))

(* An inject from a switch allocates only its message: the switch's
   source is built at its first inject and shared after, as an injecting
   hive's is. Counted around [Platform.inject] of a kind no app handles,
   so routing finds no subscriber and allocates nothing. *)
let message_words = 7. (* [Message.t]: six fields and a header *)

let test_switch_inject_words () =
  let app =
    App.create ~name:"test.sw" ~dicts:[ "d" ]
      [ App.handler ~kind:"test.handled" ~map:(fun _ -> Mapping.with_key "d" "k") (fun _ _ -> ()) ]
  in
  let engine, platform = make_platform ~n_hives:2 ~apps:[ app ] () in
  let from = Channels.Switch 5 and payload = Noop 0 in
  let injects () =
    for _ = 1 to 1_000 do
      Platform.inject platform ~from ~kind:"test.unhandled" payload
    done
  in
  injects ();
  Engine.run engine;
  Alcotest.(check (float 0.)) "words per inject" message_words (minor_words_of injects /. 1_000.);
  let srcs = ref [] in
  Platform.on_emit platform (fun ~parent:_ ~child ~emitter:_ -> srcs := child.Message.src :: !srcs);
  Platform.inject platform ~from:(Channels.Switch 5) ~kind:"test.handled" payload;
  Platform.inject platform ~from ~kind:"test.unhandled" payload;
  Platform.inject platform ~from:(Channels.Switch 6) ~kind:"test.handled" payload;
  Engine.run engine;
  match !srcs with
  | [ six; five'; five ] ->
    Alcotest.(check bool) "one source per switch" true (five == five');
    Alcotest.(check bool) "each names its switch" true
      (five = Message.From_endpoint (Channels.Switch 5)
      && six = Message.From_endpoint (Channels.Switch 6))
  | _ -> Alcotest.fail "three injects seen"

(* A context kept past its handler is a stale handle on the bee's one
   transaction, which a later delivery has reopened: its state accesses
   raise as on a finished transaction and never reach the later
   delivery's writes, and its emit still takes the late path, as a child
   of its own message. *)
let test_stale_context () =
  let kept = ref None and outcomes = ref [] and inside = ref [] in
  let on kind rcv = App.handler ~kind ~map:(fun _ -> Mapping.with_key "store" "k") rcv in
  let attempt what f =
    let outcome = match f () with () -> "returned" | exception Invalid_argument m -> m in
    outcomes := (what, outcome) :: !outcomes
  in
  let app =
    App.create ~name:"test.stale" ~dicts:[ "store" ]
      [
        on "test.keep" (fun ctx _ ->
            Context.set ctx ~dict:"store" ~key:"k" (Value.V_int 1);
            kept := Some ctx);
        on "test.reuse" (fun ctx _ ->
            Context.set ctx ~dict:"store" ~key:"k" (Value.V_int 2);
            let stale = Option.get !kept in
            attempt "get" (fun () -> ignore (Context.get stale ~dict:"store" ~key:"k"));
            attempt "update" (fun () ->
                Context.update stale ~dict:"store" ~key:"k" (fun _ -> Some (Value.V_int 3)));
            attempt "iter_dict" (fun () -> Context.iter_dict stale ~dict:"store" (fun _ _ -> ()));
            Context.emit stale ~kind:"test.late" (Noop 0);
            inside :=
              [
                ("one transaction per bee", Context.tx stale == Context.tx ctx);
                ( "the later writes alone are pending",
                  State.tx_pending (Context.tx ctx) = [ ("store", "k", Some (Value.V_int 2)) ] );
                ("nothing emitted in the later context", Context.emitted ctx = []);
              ]);
      ]
  in
  let engine, platform = make_platform ~apps:[ app ] () in
  let late = ref [] in
  Platform.on_emit platform (fun ~parent ~child ~emitter:_ ->
      if String.equal child.Message.kind "test.late" then
        late := Option.map (fun (m : Message.t) -> m.Message.kind) parent :: !late);
  Platform.inject platform ~from:(Channels.Hive 1) ~kind:"test.keep" (Noop 0);
  drain engine;
  Platform.inject platform ~from:(Channels.Hive 1) ~kind:"test.reuse" (Noop 0);
  drain engine;
  let finished = "State: transaction already finished" in
  Alcotest.(check (list (pair string string))) "stale accesses raise"
    [ ("get", finished); ("update", finished); ("iter_dict", finished) ]
    (List.rev !outcomes);
  List.iter (fun (what, ok) -> Alcotest.(check bool) what true ok) !inside;
  Alcotest.(check (list (option string))) "the late emit's parent is the stale context's message"
    [ Some "test.keep" ] !late;
  Alcotest.(check (option int)) "the later delivery committed its own write" (Some 2)
    (store_value platform ~bee:(owner_exn platform ~app:"test.stale" "k") ~key:"k")

(* The emit hooks' [emitter] is the child's own source, for every way a
   message is made: a bee's emit and endpoint send at commit, an emit
   made after the handler returned, and an injected message. *)
let test_emitter_is_child_source () =
  let switch = Channels.Switch 3 and kept = ref None in
  let app =
    App.create ~name:"test.emitter" ~dicts:[ "store" ]
      [
        App.handler ~kind:"test.go"
          ~map:(fun _ -> Mapping.with_key "store" "k")
          (fun ctx _ ->
            Context.emit ctx ~kind:"test.emit" (Noop 0);
            Context.send_to ctx switch ~kind:"test.send" (Noop 0);
            kept := Some ctx);
      ]
  in
  let engine, platform = make_platform ~apps:[ app ] () in
  Platform.register_endpoint platform switch ignore;
  let seen = ref [] in
  Platform.on_emit platform (fun ~parent:_ ~child ~emitter ->
      seen := (child.Message.kind, emitter = child.Message.src, child.Message.src) :: !seen);
  Platform.inject platform ~from:(Channels.Hive 2) ~kind:"test.go" (Noop 0);
  drain engine;
  (match !kept with
  | Some ctx -> Context.emit ctx ~kind:"test.late" (Noop 0)
  | None -> Alcotest.fail "the handler never ran");
  drain engine;
  let bee = owner_exn platform ~app:"test.emitter" "k" in
  let from_bee = Message.From_bee { bee; hive = 2; app = "test.emitter" } in
  Alcotest.(check (list (pair string bool))) "every emitter is the child's source"
    [ ("test.go", true); ("test.emit", true); ("test.send", true); ("test.late", true) ]
    (List.rev_map (fun (kind, same, _) -> (kind, same)) !seen);
  Alcotest.(check bool) "sources name the endpoint, then the bee" true
    (List.rev_map (fun (_, _, src) -> src) !seen
    = [ Message.From_endpoint (Channels.Hive 2); from_bee; from_bee; from_bee ])

(* A bee's handler constants are rebuilt when it moves: after a
   migration, and after its hive fails and restarts, its handler's
   [bee_id] and [hive_id] and its emits' source name the hive it runs
   on. *)
let test_handler_names_current_hive () =
  let app_name = "test.where" and seen = ref [] and srcs = ref [] in
  let app =
    App.create ~name:app_name ~dicts:[ "store" ]
      [
        App.handler ~kind:"test.go"
          ~map:(fun _ -> Mapping.with_key "store" "k")
          (fun ctx _ ->
            seen := (Context.bee_id ctx, Context.hive_id ctx) :: !seen;
            Context.emit ctx ~kind:"test.echo" (Noop 0));
      ]
  in
  let engine, platform = durable_platform ~apps:[ app ] () in
  Platform.on_emit platform (fun ~parent:_ ~child ~emitter:_ ->
      if String.equal child.Message.kind "test.echo" then srcs := child.Message.src :: !srcs);
  let settle () = run_for engine 0.05 in
  let handled_on what hive =
    seen := [];
    srcs := [];
    Platform.inject platform ~from:(Channels.Hive 1) ~kind:"test.go" (Noop 0);
    settle ();
    let bee = owner_exn platform ~app:app_name "k" in
    Alcotest.(check (option int)) (what ^ ": the bee's hive") (Some hive)
      (Platform.live_bee_hive platform bee);
    Alcotest.(check (list (pair int int))) (what ^ ": the handler's bee and hive")
      [ (bee, hive) ] !seen;
    Alcotest.(check bool) (what ^ ": the emit's source") true
      (!srcs = [ Message.From_bee { bee; hive; app = app_name } ]);
    bee
  in
  let migrate bee to_hive =
    Alcotest.(check bool) "migration admitted" true
      (Platform.migrate_bee platform ~bee ~to_hive ~reason:"test");
    settle ()
  in
  let bee = handled_on "created" 1 in
  migrate bee 3;
  ignore (handled_on "migrated" 3);
  Platform.fail_hive platform 3;
  Platform.restart_hive platform 3;
  settle ();
  ignore (handled_on "restarted" 3);
  migrate bee 0;
  ignore (handled_on "migrated after the restart" 0)

(* A bee's send to an endpoint that was never registered is dropped at
   commit: the [dropped.missing_endpoint] gauge counts it, and no
   endpoint's callback runs. *)
let test_send_to_unregistered_endpoint () =
  let calls = ref 0 in
  let app =
    App.create ~name:"test.sender" ~dicts:[ "store" ]
      [
        App.handler ~kind:"test.go"
          ~map:(fun _ -> Mapping.with_key "store" "k")
          (fun ctx _ -> Context.send_to ctx (Channels.Switch 42) ~kind:"test.send" (Noop 0));
      ]
  in
  let engine, platform = make_platform ~apps:[ app ] () in
  Platform.register_endpoint platform (Channels.Switch 7) (fun _ -> incr calls);
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:"test.go" (Noop 0);
  drain engine;
  Alcotest.(check int) "the handler ran" 1 (Platform.total_processed platform);
  Alcotest.(check int) "dropped.missing_endpoint" 1
    (List.assoc "dropped.missing_endpoint" (Platform.gauges platform));
  Alcotest.(check int) "no callback ran" 0 !calls;
  Alcotest.(check int) "no handler fault" 0 (Platform.handler_faults platform)

(* A send on the wire to [Channels.Hive 3] when [decommission_hive 3]
   removes that endpoint counts as dropped where it lands: the callback
   registered before the decommission does not run. *)
let test_send_to_endpoint_removed_in_flight () =
  let calls = ref 0 and retired = ref false in
  let decommission = ref (fun () -> ()) in
  let app =
    App.create ~name:"test.sender" ~dicts:[ "store" ]
      [
        App.handler ~kind:"test.go"
          ~map:(fun _ -> Mapping.with_key "store" "k")
          (fun ctx _ ->
            Context.send_to ctx (Channels.Hive 3) ~kind:"test.send" (Noop 0);
            !decommission ());
      ]
  in
  let engine, platform = make_platform ~apps:[ app ] () in
  Platform.register_endpoint platform (Channels.Hive 3) (fun _ -> incr calls);
  (* Right after the commit that put the send on the wire, at the same
     instant. *)
  (decommission :=
     fun () ->
       ignore
         (Engine.schedule_after engine Simtime.zero (fun () ->
              retired := Platform.decommission_hive platform 3)));
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:"test.go" (Noop 0);
  drain engine;
  Alcotest.(check bool) "hive 3 decommissioned while the send was on the wire" true !retired;
  Alcotest.(check int) "dropped.missing_endpoint" 1
    (List.assoc "dropped.missing_endpoint" (Platform.gauges platform));
  Alcotest.(check int) "no callback ran" 0 !calls;
  Alcotest.(check int) "no handler fault" 0 (Platform.handler_faults platform)

(* The route plan's lookup cache is invalidated by every hive lifecycle
   transition, even one on a hive the owner does not live on: the next
   remote Cells leg pays its lock-service lookup again. *)
let test_lifecycle_invalidates_lookups () =
  let engine, platform = make_platform ~apps:[ kv_app () ] () in
  (* The owner of "k" lives on hive 1; legs come from hive 0. *)
  put platform ~from:1 ~key:"k" ~value:1;
  drain engine;
  let rpcs_of_leg () =
    let before = Platform.total_lock_rpcs platform in
    put platform ~from:0 ~key:"k" ~value:1;
    drain engine;
    Platform.total_lock_rpcs platform - before
  in
  Alcotest.(check int) "cold cache: one lookup" 1 (rpcs_of_leg ());
  Alcotest.(check int) "cached: no lookup" 0 (rpcs_of_leg ());
  Platform.set_draining platform 3 true;
  Alcotest.(check int) "after set_draining on hive 3: one lookup" 1 (rpcs_of_leg ());
  Alcotest.(check int) "cached again" 0 (rpcs_of_leg ());
  ignore (Platform.add_hive platform);
  Alcotest.(check int) "after add_hive: one lookup" 1 (rpcs_of_leg ());
  Alcotest.(check int) "cached once more" 0 (rpcs_of_leg ())

let suite =
  [
    ( "platform",
      [
        Alcotest.test_case "put creates bee and state" `Quick test_put_creates_bee_and_state;
        Alcotest.test_case "same key -> same bee" `Quick test_same_key_same_bee_any_origin;
        Alcotest.test_case "different keys shard" `Quick test_different_keys_shard;
        Alcotest.test_case "whole-dict access merges bees" `Quick test_whole_dict_merges_bees;
        Alcotest.test_case "reads follow ownership changes" `Quick test_reads_follow_ownership;
        Alcotest.test_case "latency percentiles count merged bees" `Quick
          test_latency_percentile_counts_merged_bees;
        Alcotest.test_case "access violation aborts tx" `Quick test_access_violation_aborts;
        Alcotest.test_case "foreach fan-out" `Quick test_foreach_fanout;
        Alcotest.test_case "foreach visits each cell once across a merge" `Quick
          test_foreach_survives_merge;
        Alcotest.test_case "foreach visits each cell once across a migration" `Quick
          test_foreach_survives_migration;
        Alcotest.test_case "a migrating merge winner waits for its busy loser" `Quick
          test_migrating_merge_winner_waits;
        Alcotest.test_case "local apps per hive" `Quick test_local_app_per_hive;
        Alcotest.test_case "emit hooks see the child's source as emitter" `Quick
          test_emitter_is_child_source;
        Alcotest.test_case "timers survive a crash of hive 0" `Quick
          test_timers_survive_hive_zero_crash;
        Alcotest.test_case "migration preserves state+order" `Quick
          test_migration_preserves_state_and_order;
        Alcotest.test_case "migration traffic accounted" `Quick test_migration_traffic_accounted;
        Alcotest.test_case "migration rejections" `Quick test_migration_rejections;
        Alcotest.test_case "capacity limit" `Quick test_capacity_limit;
        Alcotest.test_case "replication failover" `Quick test_replication_failover;
        Alcotest.test_case "failover needs a live target" `Quick
          test_failover_needs_a_live_target;
        Alcotest.test_case "hive failure without replication" `Quick test_no_replication_loses_bee;
        QCheck_alcotest.to_alcotest prop_intersecting_messages_same_bee;
        Alcotest.test_case "counters and quiescence" `Quick test_counters_and_quiescence;
        Alcotest.test_case "runtime words per message" `Quick test_runtime_words_per_message;
        Alcotest.test_case "hooked runtime words per message" `Quick
          test_hooked_words_per_message;
        Alcotest.test_case "durable runtime words per message" `Quick
          test_durable_words_per_message;
        Alcotest.test_case "mark lookups and consumed marks allocate 0 words" `Quick
          test_mark_bookkeeping_words;
        Alcotest.test_case "a recheck allocates 0 words" `Quick test_recheck_words;
        Alcotest.test_case "a Cells leg allocates only its delivery" `Quick test_cells_leg_words;
        Alcotest.test_case "an inject from a switch allocates only its message" `Quick
          test_switch_inject_words;
        Alcotest.test_case "a stale context never reaches a later transaction" `Quick
          test_stale_context;
        Alcotest.test_case "stale completion is a no-op" `Quick test_stale_completion_is_a_noop;
        Alcotest.test_case "handler names its bee's current hive" `Quick
          test_handler_names_current_hive;
        Alcotest.test_case "a send to an unregistered endpoint is dropped" `Quick
          test_send_to_unregistered_endpoint;
        Alcotest.test_case "a send to an endpoint removed in flight is dropped" `Quick
          test_send_to_endpoint_removed_in_flight;
        Alcotest.test_case "a lifecycle event invalidates cached lookups" `Quick
          test_lifecycle_invalidates_lookups;
      ] );
  ]
