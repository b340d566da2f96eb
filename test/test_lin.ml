(* The linearizability checker: verdicts on hand-written histories
   (known-good and known-bad register/KV shapes, pending ops, budget
   exhaustion, per-key partitioning), the stale-read self-test (the
   deliberately re-introduced bug must be caught, shrunk and replayed),
   and client-op recording across a mid-flight migration. *)

open Helpers
module H = Beehive_check.History
module Lin = Beehive_check.Lin
module Check = Beehive_check.Check
module Script = Beehive_check.Script
module Monitor = Beehive_check.Monitor

let us = Simtime.of_us

(* Hand-written histories: build op records directly so the invocation /
   return intervals are exact. *)
let mk ?(client = 0) id call ~inv ~ret status =
  {
    H.op_id = id;
    op_client = client;
    op_call = call;
    op_invoked = us inv;
    op_returned = Some (us ret);
    op_status = status;
  }

let pending ?(client = 0) id call ~inv =
  {
    H.op_id = id;
    op_client = client;
    op_call = call;
    op_invoked = us inv;
    op_returned = None;
    op_status = H.Info;
  }

let ok outcome = H.Ok outcome

let tag = function
  | Lin.Linearizable -> "linearizable"
  | Lin.Non_linearizable _ -> "non-linearizable"
  | Lin.Unknown _ -> "unknown"

let pp_verdict ppf = function
  | Lin.Non_linearizable ws ->
    Format.fprintf ppf "non-linearizable, minimal sub-history:@,%a" H.pp_ops ws
  | Lin.Unknown why -> Format.fprintf ppf "unknown (%s)" why
  | Lin.Linearizable -> Format.pp_print_string ppf "linearizable"

let expect name expected ops =
  let v = (Lin.check ops).Lin.r_verdict in
  if not (String.equal (tag v) expected) then
    Alcotest.fail
      (Format.asprintf "%s: expected %s, got %a" name expected pp_verdict v)

(* --- Known-linearizable histories ------------------------------------ *)

let test_sequential_register () =
  expect "sequential put/get/del/get" "linearizable"
    [
      mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:10 (ok H.Done);
      mk 1 (H.Get "x") ~inv:20 ~ret:30 (ok (H.Got (Some 1)));
      mk 2 (H.Del "x") ~inv:40 ~ret:50 (ok H.Done);
      mk 3 (H.Get "x") ~inv:60 ~ret:70 (ok (H.Got None));
    ]

(* A read overlapping a put may order before it; a later read must see
   the write. *)
let test_concurrent_put_get () =
  expect "overlapping put/get" "linearizable"
    [
      mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:100 (ok H.Done);
      mk 1 ~client:1 (H.Get "x") ~inv:10 ~ret:20 (ok (H.Got None));
      mk 2 ~client:1 (H.Get "x") ~inv:150 ~ret:160 (ok (H.Got (Some 1)));
    ]

(* An operation that never returned may be linearized anywhere after its
   invocation — here it must take effect between the two reads. *)
let test_pending_op_took_effect () =
  expect "pending put observed by a later read" "linearizable"
    [
      pending 0 (H.Put ("x", 1)) ~inv:0;
      mk 1 ~client:1 (H.Get "x") ~inv:10 ~ret:20 (ok (H.Got None));
      mk 2 ~client:1 (H.Get "x") ~inv:30 ~ret:40 (ok (H.Got (Some 1)));
    ]

(* ...or never have executed at all. *)
let test_pending_op_never_happened () =
  expect "pending put that never landed" "linearizable"
    [
      pending 0 (H.Put ("x", 1)) ~inv:0;
      mk 1 ~client:1 (H.Get "x") ~inv:10 ~ret:20 (ok (H.Got None));
    ]

(* Fail ops definitely did not execute and must not constrain the order. *)
let test_failed_op_excluded () =
  expect "failed put invisible" "linearizable"
    [
      mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:10 (ok H.Done);
      mk 1 ~client:1 (H.Put ("x", 2)) ~inv:20 ~ret:30 H.Fail;
      mk 2 (H.Get "x") ~inv:40 ~ret:50 (ok (H.Got (Some 1)));
    ]

(* --- Known-non-linearizable histories -------------------------------- *)

(* The stale read: a value overwritten strictly before the read was
   invoked resurfaces. The grounded witness must keep both writers. *)
let test_stale_read () =
  let ops =
    [
      mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:10 (ok H.Done);
      mk 1 (H.Put ("x", 2)) ~inv:20 ~ret:30 (ok H.Done);
      mk 2 ~client:1 (H.Get "x") ~inv:40 ~ret:50 (ok (H.Got (Some 1)));
    ]
  in
  match (Lin.check ops).Lin.r_verdict with
  | Lin.Non_linearizable w ->
    Alcotest.(check int) "witness keeps both puts and the read" 3 (List.length w)
  | v -> Alcotest.fail (Format.asprintf "stale read: got %a" pp_verdict v)

(* Two sequential swaps both claiming the same pre-image: the second
   transaction lost the first one's update. *)
let test_lost_update () =
  expect "lost update across txns" "non-linearizable"
    [
      mk 0 (H.Txn [ ("x", 1) ]) ~inv:0 ~ret:10 (ok (H.Old [ None ]));
      mk 1 ~client:1 (H.Txn [ ("x", 2) ]) ~inv:20 ~ret:30 (ok (H.Old [ None ]));
    ]

(* A read observing a value whose write was invoked only after the read
   returned: no linearization order can satisfy real time. *)
let test_circular_real_time () =
  expect "read from the future" "non-linearizable"
    [
      mk 0 (H.Get "x") ~inv:0 ~ret:10 (ok (H.Got (Some 1)));
      mk 1 ~client:1 (H.Put ("x", 1)) ~inv:20 ~ret:30 (ok H.Done);
    ]

(* A multi-key transaction is atomic: observing its write to one key but
   not the other is a violation, and the txn welds both keys into one
   component. *)
let test_txn_atomicity () =
  let ops =
    [
      mk 0 (H.Txn [ ("x", 1); ("y", 1) ]) ~inv:0 ~ret:10 (ok (H.Old [ None; None ]));
      mk 1 ~client:1 (H.Get "x") ~inv:20 ~ret:30 (ok (H.Got (Some 1)));
      mk 2 ~client:1 (H.Get "y") ~inv:40 ~ret:50 (ok (H.Got None));
    ]
  in
  let r = Lin.check ops in
  Alcotest.(check int) "txn merges x and y into one component" 1 r.Lin.r_components;
  match r.Lin.r_verdict with
  | Lin.Non_linearizable _ -> ()
  | v -> Alcotest.fail (Format.asprintf "txn atomicity: got %a" pp_verdict v)

(* --- P-compositionality ---------------------------------------------- *)

(* Independent keys check as independent components, and a violation on
   one key never implicates the other's operations. *)
let test_per_key_partitioning () =
  let ops =
    [
      mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:10 (ok H.Done);
      mk 1 (H.Get "x") ~inv:20 ~ret:30 (ok (H.Got (Some 1)));
      mk 2 ~client:1 (H.Put ("y", 5)) ~inv:0 ~ret:10 (ok H.Done);
      mk 3 ~client:1 (H.Get "y") ~inv:20 ~ret:30 (ok (H.Got (Some 5)));
    ]
  in
  let r = Lin.check ops in
  Alcotest.(check int) "two components" 2 r.Lin.r_components;
  (match r.Lin.r_verdict with
  | Lin.Linearizable -> ()
  | v -> Alcotest.fail (Format.asprintf "partitioning: got %a" pp_verdict v));
  (* Break only y: the witness must mention no x operation. *)
  let broken =
    ops @ [ mk 4 ~client:1 (H.Get "y") ~inv:40 ~ret:50 (ok (H.Got None)) ]
  in
  match (Lin.check broken).Lin.r_verdict with
  | Lin.Non_linearizable w ->
    List.iter
      (fun (op : H.op) ->
        Alcotest.(check (list string)) "witness confined to y" [ "y" ]
          (H.keys op.H.op_call))
      w
  | v -> Alcotest.fail (Format.asprintf "broken y: got %a" pp_verdict v)

(* --- Budget ------------------------------------------------------------ *)

(* Exhausting the configuration budget degrades to Unknown — never to a
   false verdict. *)
let test_budget_exhaustion_is_unknown () =
  let ops =
    List.init 6 (fun i ->
        mk i ~client:i (H.Put ("x", i)) ~inv:0 ~ret:100 (ok H.Done))
    @ [ mk 6 ~client:6 (H.Get "x") ~inv:0 ~ret:100 (ok (H.Got (Some 3))) ]
  in
  (match (Lin.check ~max_steps:1 ops).Lin.r_verdict with
  | Lin.Unknown _ -> ()
  | v -> Alcotest.fail (Format.asprintf "budget: got %a" pp_verdict v));
  (* The same history decides cleanly with the default budget. *)
  expect "decidable with full budget" "linearizable" ops

(* --- Self-test: the harness catches the stale-read bug ----------------- *)

(* Serving reads from a freshly-migrated bee's pre-transfer snapshot (the
   injected historical bug) must be caught by the lin monitor within 200
   seeds of the migration profile, shrink to a handful of script events,
   and replay deterministically. *)
let test_catches_stale_read_bug () =
  let rec sweep first_seed =
    if first_seed >= 200 then Alcotest.fail "bug not caught within 200 seeds"
    else
      let report =
        Check.run ~seeds:10
          (Beehive_check.Runner.make_cfg ~lin:true ~inject:Beehive_core.Platform.Stale_read
             ~seed:first_seed Script.Migration)
      in
      match report.Check.rp_failures with
      | [] -> sweep (first_seed + 10)
      | f :: _ -> f
  in
  let f = sweep 0 in
  Alcotest.(check string) "violated the linearizability monitor"
    "linearizability" f.Check.f_violation.Monitor.v_monitor;
  Alcotest.(check bool)
    "shrunk to at most 6 events" true
    (List.length f.Check.f_shrunk <= 6);
  Alcotest.(check bool)
    "shrunk trace replays deterministically" true f.Check.f_replays

(* --- Recording across a mid-flight migration --------------------------- *)

(* A minimal copy of the runner's lin workload wiring: ops ack when the
   owning hive's group commit lands, one fsync latency after the first
   record it covers was appended, so an Ok entry is a durable write. *)
type Message.payload += Lop of { l_id : int; l_call : H.call }

let k_lop = "test.lin.op"

let lin_test_app acks =
  let on_op =
    App.handler ~kind:k_lop
      ~map:(fun msg ->
        match msg.Message.payload with
        | Lop { l_call; _ } ->
          Mapping.with_keys (List.map (fun k -> ("reg", k)) (H.keys l_call))
        | _ -> Mapping.Drop)
      (fun ctx msg ->
        match msg.Message.payload with
        | Lop { l_id; l_call } ->
          let read k =
            match Context.get ctx ~dict:"reg" ~key:k with
            | Some (Value.V_int n) -> Some n
            | _ -> None
          in
          let outcome =
            match l_call with
            | H.Get k -> H.Got (read k)
            | H.Put (k, v) ->
              Context.set ctx ~dict:"reg" ~key:k (Value.V_int v);
              H.Done
            | H.Del k ->
              Context.del ctx ~dict:"reg" ~key:k;
              H.Done
            | H.Txn writes ->
              let old = List.map (fun (k, _) -> read k) writes in
              List.iter
                (fun (k, v) -> Context.set ctx ~dict:"reg" ~key:k (Value.V_int v))
                writes;
              H.Old old
          in
          let hive = Context.hive_id ctx in
          let q =
            match Hashtbl.find_opt acks hive with
            | Some q -> q
            | None ->
              let q = ref [] in
              Hashtbl.add acks hive q;
              q
          in
          q := (l_id, outcome) :: !q
        | _ -> ())
  in
  App.create ~name:"test.lin" ~dicts:[ "reg" ] [ on_op ]

(* Migrating the owner bee with a burst of transactions in flight: every
   invoke must still complete cleanly (committed, never silently
   dropped), and the resulting history must be linearizable. *)
let test_migration_mid_flight_recording () =
  let recorder = H.create () in
  let acks = Hashtbl.create 8 in
  let engine, platform = durable_platform ~apps:[ lin_test_app acks ] () in
  Platform.on_fsync platform (fun hive ->
      match Hashtbl.find_opt acks hive with
      | None -> ()
      | Some q ->
        let landed = List.rev !q in
        q := [];
        List.iter
          (fun (id, outcome) ->
            H.complete_ok recorder ~id ~now:(Engine.now engine) outcome)
          landed);
  let issue ~client call =
    let id = H.invoke recorder ~client ~now:(Engine.now engine) call in
    Platform.inject platform
      ~from:(Channels.Hive (client mod 4))
      ~kind:k_lop
      (Lop { l_id = id; l_call = call })
  in
  (* Seed the keys so the owner bee exists... *)
  issue ~client:0 (H.Put ("x0", 1));
  issue ~client:1 (H.Put ("x1", 2));
  run_for engine 0.005;
  let owner =
    match Platform.find_owner platform ~app:"test.lin" (Cell.cell "reg" "x0") with
    | Some b -> b
    | None -> Alcotest.fail "no owner for x0"
  in
  let hive = (Option.get (Platform.bee_view platform owner)).Platform.view_hive in
  (* ...then migrate it away with transactions still in flight on both
     sides of the move. *)
  for i = 0 to 9 do
    issue ~client:(i mod 3) (H.Txn [ ("x0", 100 + i); ("x1", 200 + i) ])
  done;
  Alcotest.(check bool) "migration accepted" true
    (Platform.migrate_bee platform ~bee:owner ~to_hive:((hive + 1) mod 4)
       ~reason:"test");
  for i = 10 to 19 do
    issue ~client:(i mod 3) (H.Txn [ ("x0", 100 + i); ("x1", 200 + i) ])
  done;
  drain engine;
  Platform.flush_durability platform;
  drain engine;
  Alcotest.(check bool) "the bee really moved" true
    (List.length (Platform.migrations platform) >= 1);
  List.iter
    (fun (op : H.op) ->
      match op.H.op_status with
      | H.Ok _ -> ()
      | H.Fail | H.Info ->
        Alcotest.fail (Format.asprintf "op not cleanly completed: %a" H.pp_ops [ op ]))
    (H.ops recorder);
  match (Lin.check (H.ops recorder)).Lin.r_verdict with
  | Lin.Linearizable -> ()
  | v -> Alcotest.fail (Format.asprintf "mid-migration history: %a" pp_verdict v)

let suite =
  [
    ( "lin",
      [
        Alcotest.test_case "sequential register is linearizable" `Quick
          test_sequential_register;
        Alcotest.test_case "overlapping put/get is linearizable" `Quick
          test_concurrent_put_get;
        Alcotest.test_case "pending op may take effect" `Quick
          test_pending_op_took_effect;
        Alcotest.test_case "pending op may never happen" `Quick
          test_pending_op_never_happened;
        Alcotest.test_case "failed op is excluded" `Quick test_failed_op_excluded;
        Alcotest.test_case "stale read is non-linearizable" `Quick test_stale_read;
        Alcotest.test_case "lost update is non-linearizable" `Quick test_lost_update;
        Alcotest.test_case "circular real-time order is non-linearizable" `Quick
          test_circular_real_time;
        Alcotest.test_case "txn atomicity spans its keys" `Quick test_txn_atomicity;
        Alcotest.test_case "per-key partitioning isolates components" `Quick
          test_per_key_partitioning;
        Alcotest.test_case "budget exhaustion degrades to unknown" `Quick
          test_budget_exhaustion_is_unknown;
        Alcotest.test_case "catches injected stale reads" `Quick
          test_catches_stale_read_bug;
        Alcotest.test_case "records cleanly across a mid-flight migration" `Quick
          test_migration_mid_flight_recording;
      ] );
  ]
