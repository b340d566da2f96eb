(* Elastic scaling: grow and shrink a running control plane.

   The quickstart's key-sharded hit counter again — but this time the
   cluster changes size while it serves traffic:

   - a new hive joins at runtime ([Membership.add_hive]): channels,
     transport endpoints and the failure-detector quorum all widen, and
     the instrumentation optimizer's scale-out policy starts pulling the
     busiest bees onto the newcomer;
   - a hive is drained ([Membership.drain]): it stops accepting new
     cells, its bees are live-migrated out (counters intact — no state is
     lost), and once it owns nothing it is decommissioned for good.

   Run with: dune exec examples/elastic_scaling.exe *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Instrumentation = Beehive_core.Instrumentation
module Membership = Beehive_elastic.Membership

type Message.payload += Hit of { url : string }

let k_hit = "elastic.hit"
let app_name = "elastic.counter"

let counter_app =
  App.create ~name:app_name ~dicts:[ "hits" ]
    [
      App.handler ~kind:k_hit
        ~map:(fun msg ->
          match msg.Message.payload with
          | Hit { url } -> Mapping.with_key "hits" url
          | _ -> Mapping.Drop)
        (fun ctx msg ->
          match msg.Message.payload with
          | Hit { url } ->
            Context.update ctx ~dict:"hits" ~key:url (function
              | Some (Value.V_int n) -> Some (Value.V_int (n + 1))
              | _ -> Some (Value.V_int 1))
          | _ -> ());
    ]

let urls =
  [| "/"; "/docs"; "/api"; "/login"; "/search"; "/about"; "/pricing"; "/blog" |]

let show_cluster platform =
  List.iter
    (fun h ->
      let bees =
        List.filter
          (fun (v : Platform.bee_view) ->
            v.Platform.view_hive = h
            && v.Platform.view_app = app_name
            && not v.Platform.view_is_local)
          (Platform.live_bees platform)
      in
      Format.printf "  hive %d (%-8s): %d counter bees@." h
        (Beehive_core.Hives.label (Platform.hive_state platform h))
        (List.length bees))
    (Platform.members platform)

let total platform =
  List.fold_left
    (fun acc (v : Platform.bee_view) ->
      List.fold_left
        (fun acc (_, _, value) ->
          match value with Value.V_int n -> acc + n | _ -> acc)
        acc
        (Platform.bee_state_entries platform v.Platform.view_id))
    0
    (List.filter
       (fun (v : Platform.bee_view) -> v.Platform.view_app = app_name)
       (Platform.live_bees platform))

let () =
  (* A 3-hive control plane with the placement optimizer watching. *)
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:3) in
  Platform.register_app platform counter_app;
  ignore
    (Instrumentation.install platform
       {
         Instrumentation.window = Simtime.of_ms 200;
         optimize_every = Simtime.of_ms 500;
         optimize = true;
         policy = Instrumentation.scale_out_policy;
       });
  let membership = Membership.create platform in
  Platform.start platform;

  (* Steady traffic: a hit every millisecond, entering at rotating hives. *)
  let tick = ref 0 in
  let traffic =
    Engine.every engine (Simtime.of_ms 1) (fun () ->
        incr tick;
        let members =
          List.filter (Platform.placeable platform) (Platform.members platform)
        in
        let from = List.nth members (!tick mod List.length members) in
        Platform.inject platform ~from:(Channels.Hive from) ~kind:k_hit
          (Hit { url = urls.(!tick mod Array.length urls) }))
  in
  Engine.run_until engine (Simtime.of_sec 2.0);
  Format.printf "=== 3 hives under load@.";
  show_cluster platform;
  Format.printf "hits counted: %d@.@." (total platform);

  (* Scale out: one more hive. The scale-out policy spots the empty
     newcomer in the next optimization round and moves bees onto it. *)
  let joined = Membership.add_hive membership in
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 2.0));
  Format.printf "=== hive %d joined@." joined;
  show_cluster platform;
  Format.printf "rebalance migrations so far: %d@.@."
    (Membership.rebalance_migrations membership);

  (* Scale in: retire hive 0. Its bees — and their counters — move away;
     when it owns nothing, it is decommissioned automatically. *)
  ignore (Membership.drain membership ~auto_decommission:true 0);
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 2.0));
  if Membership.drain_completed membership 0 then Format.printf "drain of hive 0 complete@.";
  (* Stop the traffic and let the last hits land before tallying. *)
  ignore (Engine.cancel engine traffic);
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_ms 100));
  Format.printf "=== hive 0 drained and decommissioned@.";
  show_cluster platform;
  Format.printf "hive 0 state: %s@."
    (Beehive_core.Hives.label (Platform.hive_state platform 0));
  Format.printf "hits counted (none lost): %d of %d injected@." (total platform) !tick
