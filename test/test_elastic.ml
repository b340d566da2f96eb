(* Elastic membership: join, drain, decommission (lib/elastic).

   Covers the runtime lifecycle alive -> draining -> decommissioned, the
   evacuation pump's no-loss guarantee, the placement redirect while
   draining, raft group handoff at drain start, and — the quorum
   regression — the failure detector recomputing its majority over
   *current* membership, so a 5-to-3 shrink makes two observers a
   majority again while a 2-hive minority of 5 can never evict the other
   three. *)

open Helpers
module Membership = Beehive_elastic.Membership
module Failure_detector = Beehive_core.Failure_detector
module Raft_replication = Beehive_core.Raft_replication
module Channels = Beehive_net.Channels

let hive_of platform bee =
  (Option.get (Platform.bee_view platform bee)).Platform.view_hive

let keys n = List.init n (fun i -> Printf.sprintf "k%d" i)

(* A [membership.*] counter, read from the gauges. *)
let gauge membership name = List.assoc ("membership." ^ name) (Membership.gauges membership)

(* Runs the pump until [hive]'s drain record completes (2 s of simulated
   time at most). *)
let await_drain engine membership hive =
  let deadline = Simtime.add (Engine.now engine) (Simtime.of_sec 2.0) in
  let rec go () =
    if List.mem hive (Membership.draining membership) then begin
      if Simtime.(Engine.now engine > deadline) then
        Alcotest.fail (Printf.sprintf "drain of hive %d never completed" hive);
      Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_ms 10));
      go ()
    end
  in
  go ()

(* --- join ------------------------------------------------------------ *)

(* add_hive widens everything at runtime: platform membership, the
   channel/transport fabric (a message injected at the newcomer reaches
   an owner elsewhere), and the failure detector's quorum denominator. *)
let test_add_hive_grows_cluster () =
  let engine, platform = make_platform ~n_hives:3 ~apps:[ kv_app () ] () in
  let det = Failure_detector.install platform in
  let membership = Membership.create platform in
  Alcotest.(check int) "initial quorum of 3" 2 (Failure_detector.quorum det);
  let joined = Membership.add_hive membership in
  Alcotest.(check int) "new id is the old count" 3 joined;
  Alcotest.(check int) "platform grew" 4 (Platform.n_hives platform);
  Alcotest.(check (list int)) "members" [ 0; 1; 2; 3 ] (Platform.members platform);
  Alcotest.(check bool) "newcomer placeable" true (Platform.placeable platform joined);
  Alcotest.(check int) "detector follows the join" 4
    (Failure_detector.member_count det);
  Alcotest.(check int) "quorum of 4" 3 (Failure_detector.quorum det);
  Alcotest.(check int) "one join counted" 1 (Membership.joins membership);
  (* The widened fabric carries traffic injected at the newcomer. *)
  put platform ~from:joined ~key:"via-newcomer" ~value:7;
  drain engine;
  let owner = owner_exn platform ~app:"test.kv" "via-newcomer" in
  Alcotest.(check (option int)) "put via new hive landed" (Some 7)
    (store_value platform ~bee:owner ~key:"via-newcomer");
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* --- drain ----------------------------------------------------------- *)

(* Draining a hive live-migrates every bee out, loses no state, redirects
   new placements elsewhere, and completes at zero cells owned. *)
let test_drain_evacuates_without_loss () =
  let engine, platform = durable_platform ~apps:[ kv_app () ] () in
  let membership = Membership.create platform in
  List.iteri (fun i k -> put platform ~from:(i mod 4) ~key:k ~value:1) (keys 8);
  drain engine;
  let victim = hive_of platform (owner_exn platform ~app:"test.kv" "k0") in
  Alcotest.(check bool) "drain accepted" true (Membership.drain membership victim);
  Alcotest.(check bool) "no longer placeable" false (Platform.placeable platform victim);
  Alcotest.(check bool) "second drain refused" false (Membership.drain membership victim);
  (* A key injected mid-drain must home somewhere else. *)
  put platform ~from:victim ~key:"late" ~value:5;
  await_drain engine membership victim;
  Alcotest.(check bool) "hive owns nothing" true (Platform.drain_complete platform victim);
  Alcotest.(check bool) "still alive (not yet decommissioned)" true
    (Platform.hive_alive platform victim);
  List.iter
    (fun k ->
      let owner = owner_exn platform ~app:"test.kv" k in
      Alcotest.(check bool)
        (Printf.sprintf "%s moved off the drained hive" k)
        true
        (hive_of platform owner <> victim);
      Alcotest.(check (option int))
        (Printf.sprintf "counter of %s intact" k)
        (Some 1)
        (store_value platform ~bee:owner ~key:k))
    (keys 8);
  Alcotest.(check bool) "late put avoided the draining hive" true
    (hive_of platform (owner_exn platform ~app:"test.kv" "late") <> victim);
  Alcotest.(check int) "one drain started" 1 (gauge membership "drains_started");
  Alcotest.(check int) "one drain completed" 1 (gauge membership "drains_completed");
  Alcotest.(check bool) "evacuation counted as rebalance migrations" true
    (Membership.rebalance_migrations membership >= 1);
  Alcotest.(check bool) "drain duration recorded" true
    (Membership.last_drain_us membership > 0);
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* A drain that would leave fewer than min_placeable hives to absorb the
   evacuees is refused outright. *)
let test_drain_refused_below_min_placeable () =
  let _engine, platform = make_platform ~n_hives:3 ~apps:[ kv_app () ] () in
  let membership = Membership.create platform in
  Alcotest.(check bool) "first drain fits" true (Membership.drain membership 0);
  Alcotest.(check bool) "second would leave one placeable hive" false
    (Membership.drain membership 1);
  Alcotest.(check int) "only one drain started" 1
    (gauge membership "drains_started");
  Alcotest.(check (list int)) "only hive 0 draining" [ 0 ]
    (Membership.draining membership)

(* cancel_drain returns the hive to placeable; bees already moved stay
   where they landed. *)
let test_cancel_drain_restores_placeability () =
  let engine, platform = durable_platform ~apps:[ kv_app () ] () in
  let membership = Membership.create platform in
  List.iteri (fun i k -> put platform ~from:(i mod 4) ~key:k ~value:1) (keys 4);
  drain engine;
  Alcotest.(check bool) "drain accepted" true (Membership.drain membership 1);
  Alcotest.(check bool) "cancelled" true (Membership.cancel_drain membership 1);
  Alcotest.(check bool) "placeable again" true (Platform.placeable platform 1);
  Alcotest.(check bool) "cancel of idle hive refused" false
    (Membership.cancel_drain membership 1);
  run_for engine 0.1;
  Alcotest.(check bool) "still alive" true (Platform.hive_alive platform 1);
  Alcotest.(check int) "cancelled drain never completes" 0
    (gauge membership "drains_completed");
  List.iter
    (fun k ->
      Alcotest.(check (option int))
        (Printf.sprintf "counter of %s intact" k)
        (Some 1)
        (store_value platform ~bee:(owner_exn platform ~app:"test.kv" k) ~key:k))
    (keys 4);
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* --- placement: one rule for new keys and evacuees --------------------- *)

(* A kv app whose [Put { p_key; p_value = n }] claims [n] cells, so a
   bee's size is chosen by its first put. *)
let wide_app () =
  let cells key n =
    Cell.Set.of_list (List.init n (fun i -> Cell.cell "store" (Printf.sprintf "%s.%d" key i)))
  in
  App.create ~name:"test.wide" ~dicts:[ "store" ]
    [
      App.handler ~kind:k_put
        ~map:(fun msg ->
          match msg.Message.payload with
          | Put { p_key; p_value } -> Mapping.Cells (cells p_key p_value)
          | _ -> Mapping.Drop)
        (fun _ _ -> ());
    ]

(* One registry state, two callers of the placement rule: the drain's
   evacuee and a new key injected at the draining hive (both decided
   before the evacuee lands) go to the same hive, the one owning the
   fewest cells, the lower id of the tied hives 2 and 3. *)
let test_evacuee_and_new_key_share_the_rule () =
  let engine, platform = make_platform ~apps:[ kv_app () ] () in
  let membership = Membership.create platform in
  List.iter
    (fun (from, key) -> put platform ~from ~key ~value:1)
    [ (0, "evacuee"); (1, "p"); (1, "q"); (2, "r"); (3, "s") ];
  drain engine;
  let owner_hive key = hive_of platform (owner_exn platform ~app:"test.kv" key) in
  Alcotest.(check (list int)) "cells per hive" [ 1; 2; 1; 1 ]
    (List.map
       (fun h -> Beehive_core.Registry.cells_on_hive (Platform.registry platform) ~hive:h)
       [ 0; 1; 2; 3 ]);
  Alcotest.(check (option int)) "the rule's pick" (Some 2)
    (Platform.least_loaded_hive platform ~exclude:0 ~cells:1);
  Alcotest.(check bool) "drain accepted" true (Membership.drain membership 0);
  put platform ~from:0 ~key:"new" ~value:1;
  await_drain engine membership 0;
  Alcotest.(check int) "evacuee on the least-loaded hive" 2 (owner_hive "evacuee");
  Alcotest.(check int) "new key on the same hive" 2 (owner_hive "new")

(* With a finite [hive_capacity] the evacuation sends each bee to the
   least-loaded hive with room for its cells. The rule is monotone (the
   hive with the fewest cells has room whenever any hive does), so
   capacity never redirects a bee to a busier hive: a bee too large for
   every survivor stays, and the drain waits, until a hive with room
   joins, while a smaller bee on the same hive moves at once. *)
let test_evacuation_respects_capacity () =
  let engine = Engine.create () in
  let cfg = { (Platform.default_config ~n_hives:4) with Platform.hive_capacity = 3 } in
  let platform = Platform.create engine cfg in
  Platform.register_app platform (wide_app ());
  Platform.start platform;
  let membership = Membership.create platform in
  List.iter
    (fun (from, key, width) -> put platform ~from ~key ~value:width)
    [ (0, "big", 2); (0, "small", 1); (1, "a", 2); (2, "b", 2); (3, "c", 2) ];
  drain engine;
  let owner_hive key =
    hive_of platform (Option.get (Platform.find_owner platform ~app:"test.wide"
                                    (Cell.cell "store" (key ^ ".0"))))
  in
  Alcotest.(check bool) "drain accepted" true (Membership.drain membership 0);
  run_for engine 0.5;
  Alcotest.(check int) "one-cell bee: least-loaded hive with room, lowest id" 1
    (owner_hive "small");
  Alcotest.(check int) "two-cell bee: no survivor has room" 0 (owner_hive "big");
  Alcotest.(check (list int)) "drain waits" [ 0 ] (Membership.draining membership);
  let joined = Membership.add_hive membership in
  await_drain engine membership 0;
  Alcotest.(check int) "two-cell bee moves to the hive with room" joined (owner_hive "big");
  Alcotest.(check bool) "drain completed" true (Membership.drain_completed membership 0);
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (Printf.sprintf "hive %d within capacity" h)
        true
        (Beehive_core.Registry.cells_on_hive (Platform.registry platform) ~hive:h <= 3))
    (Platform.members platform)

(* Admission counts the cells already in flight toward a hive: two
   one-cell evacuees that one pump step starts toward the same empty hive
   of capacity 1 cannot both be admitted. One moves, the other waits on
   the draining hive until a hive with room joins. *)
let test_evacuees_share_inbound_room () =
  let engine = Engine.create () in
  let cfg = { (Platform.default_config ~n_hives:3) with Platform.hive_capacity = 1 } in
  let platform = Platform.create engine cfg in
  Platform.register_app platform (kv_app ());
  Platform.start platform;
  let membership = Membership.create platform in
  List.iter (fun (from, key) -> put platform ~from ~key ~value:1) [ (0, "a"); (0, "b"); (2, "c") ];
  drain engine;
  let cells h = Beehive_core.Registry.cells_on_hive (Platform.registry platform) ~hive:h in
  Alcotest.(check (list int)) "cells per hive" [ 2; 0; 1 ] (List.map cells [ 0; 1; 2 ]);
  Alcotest.(check bool) "drain accepted" true (Membership.drain membership 0);
  run_for engine 0.5;
  let on h key = hive_of platform (owner_exn platform ~app:"test.kv" key) = h in
  Alcotest.(check (list int)) "hive 1 filled to capacity, not over" [ 1; 1; 1 ]
    (List.map cells [ 0; 1; 2 ]);
  Alcotest.(check int) "one evacuee moved" 1
    (List.length (List.filter (on 1) [ "a"; "b" ]));
  Alcotest.(check (list int)) "drain waits" [ 0 ] (Membership.draining membership);
  let joined = Membership.add_hive membership in
  await_drain engine membership 0;
  Alcotest.(check int) "the other evacuee takes the new hive" 1
    (List.length (List.filter (on joined) [ "a"; "b" ]));
  List.iter
    (fun h ->
      Alcotest.(check bool) (Printf.sprintf "hive %d within capacity" h) true (cells h <= 1))
    (Platform.members platform)

(* The same squeeze with the first evacuee busy: a 50 ms put is still
   running on it when the drain starts. Its move is admitted at once and
   starts only when the put completes, yet its cells are reserved on
   hive 1 at admission, so the idle second evacuee finds no room there
   and waits for a new hive. *)
let test_busy_evacuee_reserves_room () =
  let engine = Engine.create () in
  let cfg = { (Platform.default_config ~n_hives:3) with Platform.hive_capacity = 1 } in
  let platform = Platform.create engine cfg in
  let slow = Simtime.of_ms 50 in
  Platform.register_app platform
    (App.create ~name:"test.kv" ~dicts:[ "store" ]
       [
         App.handler ~kind:k_put
           ~cost:(fun msg ->
             match msg.Message.payload with
             | Put { p_value = 50; _ } -> slow
             | _ -> App.default_cost)
           ~map:(fun msg ->
             match msg.Message.payload with
             | Put { p_key; _ } -> Mapping.with_key "store" p_key
             | _ -> Mapping.Drop)
           (fun ctx msg ->
             match msg.Message.payload with
             | Put { p_key; p_value } ->
               Context.set ctx ~dict:"store" ~key:p_key (Value.V_int p_value)
             | _ -> ());
       ]);
  Platform.start platform;
  let membership = Membership.create platform in
  List.iter (fun (from, key) -> put platform ~from ~key ~value:1) [ (0, "a"); (0, "b"); (2, "c") ];
  drain engine;
  let cells h = Beehive_core.Registry.cells_on_hive (Platform.registry platform) ~hive:h in
  Alcotest.(check (list int)) "cells per hive" [ 2; 0; 1 ] (List.map cells [ 0; 1; 2 ]);
  put platform ~from:0 ~key:"a" ~value:50;
  run_for engine 0.001;
  Alcotest.(check bool) "drain accepted" true (Membership.drain membership 0);
  for _ = 1 to 500 do
    run_for engine 0.001;
    if cells 1 > 1 then Alcotest.failf "hive 1 holds %d cells" (cells 1)
  done;
  let on h key = hive_of platform (owner_exn platform ~app:"test.kv" key) = h in
  Alcotest.(check bool) "the busy evacuee moved to hive 1" true (on 1 "a");
  Alcotest.(check (list int)) "drain waits" [ 0 ] (Membership.draining membership);
  let joined = Membership.add_hive membership in
  await_drain engine membership 0;
  Alcotest.(check bool) "the idle evacuee takes the new hive" true (on joined "b");
  Alcotest.(check (option int)) "the slow put landed" (Some 50)
    (store_value platform ~bee:(owner_exn platform ~app:"test.kv" "a") ~key:"a")

(* --- decommission ---------------------------------------------------- *)

(* Decommission is refused while the hive still owns cells; after the
   drain completes it retires the id for good (restart is a no-op on it),
   and the pump completes the drain record and auto-decommissions. *)
let test_decommission_requires_complete_drain () =
  let engine, platform = durable_platform ~apps:[ kv_app () ] () in
  let membership = Membership.create platform in
  List.iteri (fun i k -> put platform ~from:(i mod 4) ~key:k ~value:1) (keys 8);
  drain engine;
  let victim = hive_of platform (owner_exn platform ~app:"test.kv" "k0") in
  Alcotest.(check bool) "refused while it owns cells" false
    (Membership.decommission membership victim);
  Alcotest.(check bool) "drain accepted" true
    (Membership.drain membership ~auto_decommission:true victim);
  await_drain engine membership victim;
  run_for engine 0.05;
  Alcotest.(check bool) "drain completed" true (Membership.drain_completed membership victim);
  Alcotest.(check bool) "auto-decommission asked for" true
    (Membership.auto_decommission membership victim);
  Alcotest.(check bool) "auto-decommissioned" true
    (Platform.hive_decommissioned platform victim);
  Alcotest.(check bool) "decommission idempotent" true
    (Membership.decommission membership victim);
  Alcotest.(check bool) "out of membership" false
    (List.mem victim (Platform.members platform));
  Alcotest.(check int) "member count shrank" 3 (Platform.member_count platform);
  Platform.restart_hive platform victim;
  Alcotest.(check bool) "restart cannot resurrect it" true
    (Platform.hive_decommissioned platform victim);
  (* The shrunken cluster still serves writes. *)
  let survivor = List.hd (Platform.members platform) in
  put platform ~from:survivor ~key:"after-shrink" ~value:3;
  drain engine;
  Alcotest.(check (option int)) "write after shrink" (Some 3)
    (store_value platform
       ~bee:(owner_exn platform ~app:"test.kv" "after-shrink")
       ~key:"after-shrink");
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* --- hive lifecycle --------------------------------------------------- *)

(* Every hive-state query at each step of the lifecycle paths: alive ->
   draining -> fenced -> rejoin (draining survives the fence and a
   crash), crash -> restart, crash -> decommission (the retired hive
   still reads as crashed), and the join of a new hive. *)
let test_hive_lifecycle_queries () =
  let _engine, platform = make_platform ~n_hives:4 () in
  let row h =
    let flag b name = if b then [ name ] else [] in
    String.concat " "
      ((Beehive_core.Hives.label (Platform.hive_state platform h)
       :: flag (Platform.hive_alive platform h) "up")
      @ flag (Platform.hive_crashed platform h) "crashed"
      @ flag (Platform.hive_state platform h = `Fenced) "fenced"
      @ flag (Platform.placeable platform h) "placeable")
  in
  let step label ~rows ~members ~gauges =
    Alcotest.(check (list string)) (label ^ ": hives") rows
      (List.init (Platform.n_hives platform) row);
    Alcotest.(check (list int)) (label ^ ": members") members
      (Platform.members platform);
    Alcotest.(check (list (pair string int))) (label ^ ": membership gauges")
      (List.combine
         [ "membership.alive"; "membership.crashed"; "membership.decommissioned";
           "membership.draining"; "membership.fenced"; "membership.hives" ]
         gauges)
      (List.filter
         (fun (k, _) -> String.starts_with ~prefix:"membership." k)
         (Platform.gauges platform))
  in
  let up = "alive up placeable" in
  step "initial" ~rows:[ up; up; up; up ] ~members:[ 0; 1; 2; 3 ]
    ~gauges:[ 4; 0; 0; 0; 0; 4 ];
  Platform.set_draining platform 1 true;
  step "draining" ~rows:[ up; "draining up"; up; up ] ~members:[ 0; 1; 2; 3 ]
    ~gauges:[ 3; 0; 0; 1; 0; 4 ];
  Platform.evict_hive platform 1;
  step "draining, fenced" ~rows:[ up; "fenced fenced"; up; up ]
    ~members:[ 0; 1; 2; 3 ] ~gauges:[ 3; 0; 0; 0; 1; 4 ];
  Alcotest.(check bool) "still draining while fenced" true
    (Platform.hive_draining platform 1);
  Platform.rejoin_hive platform 1;
  step "rejoined" ~rows:[ up; "draining up"; up; up ] ~members:[ 0; 1; 2; 3 ]
    ~gauges:[ 3; 0; 0; 1; 0; 4 ];
  Platform.crash_hive platform 1;
  step "draining, crashed" ~rows:[ up; "crashed crashed"; up; up ]
    ~members:[ 0; 1; 2; 3 ] ~gauges:[ 3; 1; 0; 0; 0; 4 ];
  Platform.restart_hive platform 1;
  step "draining, restarted" ~rows:[ up; "draining up"; up; up ]
    ~members:[ 0; 1; 2; 3 ] ~gauges:[ 3; 0; 0; 1; 0; 4 ];
  Platform.set_draining platform 1 false;
  Platform.crash_hive platform 2;
  step "crashed" ~rows:[ up; up; "crashed crashed"; up ] ~members:[ 0; 1; 2; 3 ]
    ~gauges:[ 3; 1; 0; 0; 0; 4 ];
  Platform.restart_hive platform 2;
  step "restarted" ~rows:[ up; up; up; up ] ~members:[ 0; 1; 2; 3 ]
    ~gauges:[ 4; 0; 0; 0; 0; 4 ];
  Platform.crash_hive platform 3;
  Alcotest.(check bool) "crashed empty hive decommissions" true
    (Platform.decommission_hive platform 3);
  step "crashed, decommissioned" ~rows:[ up; up; up; "decommissioned crashed" ]
    ~members:[ 0; 1; 2 ] ~gauges:[ 3; 0; 1; 0; 0; 3 ];
  Platform.restart_hive platform 3;
  step "restart of a retired hive" ~rows:[ up; up; up; "decommissioned crashed" ]
    ~members:[ 0; 1; 2 ] ~gauges:[ 3; 0; 1; 0; 0; 3 ];
  Alcotest.(check int) "joined hive takes the next id" 4 (Platform.add_hive platform);
  step "joined" ~rows:[ up; up; up; "decommissioned crashed"; up ]
    ~members:[ 0; 1; 2; 4 ] ~gauges:[ 4; 0; 1; 0; 0; 4 ]

(* --- raft handoff ---------------------------------------------------- *)

(* Draining with raft replication installed re-anchors the drained
   hive's group memberships onto live hives before the bees leave. *)
let test_drain_hands_off_raft_groups () =
  let engine, platform =
    make_platform ~n_hives:5 ~apps:[ replicated_kv_app () ] ()
  in
  let rep = Raft_replication.install platform () in
  let membership = Membership.create platform in
  List.iteri (fun i k -> put platform ~from:(i mod 5) ~key:k ~value:1) (keys 8);
  drain engine;
  let victim = hive_of platform (owner_exn platform ~app:"test.kv" "k0") in
  Alcotest.(check bool) "drain accepted" true (Membership.drain membership victim);
  await_drain engine membership victim;
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (Printf.sprintf "group at %d excludes the drained hive" h)
        false
        (List.mem victim (Raft_replication.group_members rep ~hive:h)))
    (List.filter (fun h -> h <> victim) (Platform.members platform));
  List.iter
    (fun k ->
      Alcotest.(check (option int))
        (Printf.sprintf "replicated counter of %s intact" k)
        (Some 1)
        (store_value platform ~bee:(owner_exn platform ~app:"test.kv" k) ~key:k))
    (keys 8);
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* --- quorum over live membership (satellite regression) -------------- *)

(* The 5-to-3 shrink regression. Before the shrink, a 2-hive minority of
   the 5 can never confirm a suspicion against the other three (2 votes
   < quorum 3). After draining and decommissioning two hives the
   denominator follows membership — 3 members, quorum 2 — so the two
   surviving observers of a genuine crash are a majority again. With a
   stale denominator of 5 they never would be, and the crashed hive
   would sit undetected forever. *)
let test_quorum_follows_membership_on_shrink () =
  let engine, platform = durable_platform ~n_hives:5 ~apps:[ kv_app () ] () in
  let det = Failure_detector.install platform in
  let membership = Membership.create platform in
  Alcotest.(check int) "quorum of 5" 3 (Failure_detector.quorum det);
  List.iteri (fun i k -> put platform ~from:(i mod 5) ~key:k ~value:1) (keys 10);
  drain engine;
  (* A {3,4} | {0,1,2} split: the 2-hive side hears nothing from the
     majority, but its 2 votes stay below quorum — hives 0..2 must
     survive untouched. *)
  let chans = Platform.channels platform in
  List.iter
    (fun (a, b) -> Channels.partition chans ~a ~b)
    [ (3, 0); (3, 1); (3, 2); (4, 0); (4, 1); (4, 2) ];
  run_for engine 0.03;
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (Printf.sprintf "majority hive %d not evicted by the minority" h)
        true
        (Platform.hive_alive platform h))
    [ 0; 1; 2 ];
  Channels.heal_all chans;
  run_for engine 0.03;
  Alcotest.(check bool) "converged after heal" true (Failure_detector.suspected det = []);
  (* Shrink 5 -> 3: drain and decommission hives 3 and 4. *)
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (Printf.sprintf "drain of %d accepted" h)
        true
        (Membership.drain membership ~auto_decommission:true h);
      await_drain engine membership h)
    [ 3; 4 ];
  run_for engine 0.05;
  Alcotest.(check int) "detector follows the shrink" 3
    (Failure_detector.member_count det);
  Alcotest.(check int) "quorum of 3" 2 (Failure_detector.quorum det);
  Alcotest.(check bool) "decommissioned hive left membership" false
    (Failure_detector.is_member det 4);
  (* Two observers are now a majority: a genuine crash is confirmed. *)
  let evictions_before = Failure_detector.evictions det in
  Platform.crash_hive platform 2;
  run_for engine 0.03;
  Alcotest.(check bool) "two observers confirmed the crash" true
    (Failure_detector.evictions det > evictions_before);
  Alcotest.(check bool) "crashed hive suspected" true
    (List.mem 2 (Failure_detector.suspected det));
  Beehive_core.Registry.check_invariant (Platform.registry platform)

(* The detector reads membership from the platform: a hive decommissioned
   before the detector starts is no member of its quorum. *)
let test_detector_installed_after_decommission () =
  let _engine, platform = make_platform ~n_hives:5 ~apps:[ kv_app () ] () in
  Platform.set_draining platform 4 true;
  Alcotest.(check bool) "empty hive decommissions" true
    (Platform.decommission_hive platform 4);
  let det = Failure_detector.install platform in
  Alcotest.(check int) "four members" 4 (Failure_detector.member_count det);
  Alcotest.(check bool) "hive 4 is no member" false (Failure_detector.is_member det 4);
  Alcotest.(check int) "quorum of 4" 3 (Failure_detector.quorum det)

(* --- pinning --------------------------------------------------------- *)

(* Bees of a [pinned] app and local bees never migrate, so a drain of
   the hive hosting a pinned bee cannot complete while the bee stays. *)
let test_pinned_bees_stay () =
  let local_app =
    App.create ~name:"test.local"
      [ App.handler ~kind:k_noop ~map:(fun _ -> Mapping.Local) (fun _ _ -> ()) ]
  in
  let engine, platform =
    let pinned_app = { (kv_app ~name:"test.pinned" ()) with App.pinned = true } in
    make_platform ~apps:[ kv_app (); pinned_app; local_app ] ()
  in
  let membership = Membership.create platform in
  put platform ~from:0 ~key:"k0" ~value:1;
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:k_noop (Noop 0);
  drain engine;
  let pinned = owner_exn platform ~app:"test.pinned" "k0" in
  let home = hive_of platform pinned in
  let other = (home + 1) mod Platform.n_hives platform in
  Alcotest.(check bool) "pinned bee refused" false
    (Platform.migrate_bee platform ~bee:pinned ~to_hive:other ~reason:"test");
  let local =
    List.find (fun (v : Platform.bee_view) -> v.Platform.view_is_local)
      (Platform.live_bees platform)
  in
  Alcotest.(check bool) "local bee refused" false
    (Platform.migrate_bee platform ~bee:local.Platform.view_id
       ~to_hive:((local.Platform.view_hive + 1) mod Platform.n_hives platform)
       ~reason:"test");
  let unpinned = owner_exn platform ~app:"test.kv" "k0" in
  Alcotest.(check bool) "unpinned bee migrates" true
    (Platform.migrate_bee platform ~bee:unpinned
       ~to_hive:((hive_of platform unpinned + 1) mod Platform.n_hives platform)
       ~reason:"test");
  Alcotest.(check bool) "drain accepted" true (Membership.drain membership home);
  run_for engine 0.5;
  Alcotest.(check (list int)) "drain still open" [ home ] (Membership.draining membership);
  Alcotest.(check bool) "drain incomplete" false (Platform.drain_complete platform home);
  Alcotest.(check int) "pinned bee stayed" home (hive_of platform pinned);
  Beehive_core.Registry.check_invariant (Platform.registry platform)

let suite =
  [
    ( "elastic",
      [
        Alcotest.test_case "add_hive grows the cluster at runtime" `Quick
          test_add_hive_grows_cluster;
        Alcotest.test_case "drain evacuates every bee without loss" `Quick
          test_drain_evacuates_without_loss;
        Alcotest.test_case "drain refused below min_placeable" `Quick
          test_drain_refused_below_min_placeable;
        Alcotest.test_case "cancel_drain restores placeability" `Quick
          test_cancel_drain_restores_placeability;
        Alcotest.test_case "evacuee and new key share the placement rule" `Quick
          test_evacuee_and_new_key_share_the_rule;
        Alcotest.test_case "evacuation respects hive capacity" `Quick
          test_evacuation_respects_capacity;
        Alcotest.test_case "a busy evacuee's room is reserved at admission" `Quick
          test_busy_evacuee_reserves_room;
        Alcotest.test_case "evacuees share a hive's inbound room" `Quick
          test_evacuees_share_inbound_room;
        Alcotest.test_case "decommission requires a complete drain" `Quick
          test_decommission_requires_complete_drain;
        Alcotest.test_case "hive lifecycle queries at every step" `Quick
          test_hive_lifecycle_queries;
        Alcotest.test_case "drain hands off raft groups" `Quick
          test_drain_hands_off_raft_groups;
        Alcotest.test_case "quorum follows membership across a 5->3 shrink"
          `Quick test_quorum_follows_membership_on_shrink;
        Alcotest.test_case "detector installed after a decommission" `Quick
          test_detector_installed_after_decommission;
        Alcotest.test_case "pinned and local bees never migrate" `Quick
          test_pinned_bees_stay;
      ] );
  ]
