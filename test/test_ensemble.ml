(* The whole ensemble at once: driver + decoupled TE + learning switch +
   discovery + instrumentation sharing one control plane — Section 6's
   "ensemble of control applications managing the network as a cohesive
   whole". Verifies the apps interplay without interference. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Topology = Beehive_net.Topology
module Flow = Beehive_net.Flow
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module Instrumentation = Beehive_core.Instrumentation
module Stats = Beehive_core.Stats
module Switch_agent = Beehive_openflow.Switch_agent
module Driver = Beehive_openflow.Driver
module Wire = Beehive_openflow.Wire

let n_hives = 4
let n_switches = 12

let setup () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives) in
  let topo = Topology.tree ~arity:2 ~n_switches in
  for sw = 0 to n_switches - 1 do
    Channels.assign_switch (Platform.channels platform) ~switch:sw
      ~hive:(sw * n_hives / n_switches)
  done;
  Platform.register_app platform (Driver.app ());
  Platform.register_app platform (Beehive_apps.Te_decoupled.app ~delta:500.0 ());
  Platform.register_app platform (Beehive_apps.Learning_switch.app ());
  Platform.register_app platform (Beehive_apps.Discovery.app ());
  let instr =
    Instrumentation.install platform
      { Instrumentation.default_config with optimize = false }
  in
  Platform.start platform;
  let cluster = Switch_agent.create_cluster platform topo in
  let flows =
    Flow.generate (Rng.create 3) topo ~per_switch:5 ~hot_fraction:0.4 ~base_rate:100.0
      ~hot_rate:2000.0 ()
  in
  for sw = 0 to n_switches - 1 do
    let sw_flows =
      Array.of_list
        (List.filter (fun (f : Flow.t) -> f.Flow.src_switch = sw) (Array.to_list flows))
    in
    ignore (Switch_agent.add cluster ~sw ~flows:sw_flows ())
  done;
  Switch_agent.connect_all cluster ();
  ignore
    (Engine.schedule_at engine (Simtime.of_sec 1.0) (fun () ->
         Switch_agent.send_all_lldp cluster));
  ignore
    (Engine.schedule_at engine (Simtime.of_sec 2.0) (fun () ->
         Switch_agent.send_all_lldp cluster));
  (engine, platform, topo, cluster, instr)

let test_ensemble_interplay () =
  let engine, platform, topo, cluster, instr = setup () in
  (* Hosts talk through the fabric: packet-ins feed the learning switch. *)
  ignore
    (Engine.schedule_at engine (Simtime.of_sec 3.0) (fun () ->
         let s5 = Option.get (Switch_agent.get cluster 5) in
         Switch_agent.inject_host_packet s5 ~in_port:100 ~src_mac:0xAAL ~dst_mac:0xBBL;
         Switch_agent.inject_host_packet s5 ~in_port:101 ~src_mac:0xBBL ~dst_mac:0xAAL));
  Engine.run_until engine (Simtime.of_sec 8.0);

  (* 1. Discovery built the full adjacency. *)
  for sw = 0 to n_switches - 1 do
    let expected = List.sort_uniq Int.compare (Topology.neighbors topo sw) in
    Alcotest.(check (list int))
      (Printf.sprintf "adjacency of switch %d" sw)
      expected
      (Beehive_apps.Discovery.neighbors_of platform ~switch:sw)
  done;

  (* 2. The learning switch learned both hosts on switch 5. *)
  Alcotest.(check (option int)) "learned 0xAA" (Some 100)
    (Beehive_apps.Learning_switch.learned_port platform ~switch:5 ~mac:0xAAL);
  Alcotest.(check (option int)) "learned 0xBB" (Some 101)
    (Beehive_apps.Learning_switch.learned_port platform ~switch:5 ~mac:0xBBL);

  (* 3. TE observed stats and re-routed the hot flows. *)
  Alcotest.(check bool) "TE rerouted hot flows" true
    (Beehive_apps.Te_decoupled.rerouted_count platform > 0);

  (* 4. Instrumentation aggregated loads for several apps. *)
  let observed_apps =
    List.filter_map
      (fun l ->
        Option.map
          (fun (v : Platform.bee_view) -> v.Platform.view_app)
          (Platform.bee_view platform l.Instrumentation.bl_bee))
      (Instrumentation.loads instr)
    |> List.sort_uniq String.compare
  in
  Alcotest.(check bool) "driver instrumented" true
    (List.mem Driver.app_name observed_apps);
  Alcotest.(check bool) "TE instrumented" true
    (List.mem Beehive_apps.Te_decoupled.app_name observed_apps);

  (* 5. No handler anywhere raised (no access violations, no crashes). *)
  Alcotest.(check int) "no handler faults" 0 (Platform.handler_faults platform);

  (* 6. Apps never share bees: every bee belongs to exactly one app, and
     each app's cells are disjoint from other apps' by construction. *)
  Beehive_core.Registry.check_invariant (Platform.registry platform)

let test_ensemble_is_deterministic () =
  let run () =
    let engine, platform, _, _, _ = setup () in
    Engine.run_until engine (Simtime.of_sec 6.0);
    (Platform.total_processed platform, Platform.total_lock_rpcs platform)
  in
  let a = run () and b = run () in
  Alcotest.(check (pair int int)) "identical replays" a b

let suite =
  [
    ( "ensemble",
      [
        Alcotest.test_case "apps interplay on one control plane" `Slow test_ensemble_interplay;
        Alcotest.test_case "ensemble deterministic" `Slow test_ensemble_is_deterministic;
      ] );
  ]
