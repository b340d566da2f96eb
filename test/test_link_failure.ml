(* Link failure end to end: switch port-status -> driver -> discovery ->
   TE re-route repair, on a ring topology (so an alternative path
   exists). *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Topology = Beehive_net.Topology
module Flow = Beehive_net.Flow
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module Switch_agent = Beehive_openflow.Switch_agent
module Driver = Beehive_openflow.Driver
module Wire = Beehive_openflow.Wire
module Discovery = Beehive_apps.Discovery
module Te = Beehive_apps.Te_decoupled

let n_switches = 6

(* One deliberately hot flow from switch 1 to switch 4 (clockwise path
   1-2-3-4 on the ring); everything else cold. *)
let setup () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:3) in
  let topo = Topology.ring ~n_switches in
  for sw = 0 to n_switches - 1 do
    Channels.assign_switch (Platform.channels platform) ~switch:sw ~hive:(sw mod 3)
  done;
  Platform.register_app platform (Driver.app ());
  Platform.register_app platform (Discovery.app ());
  Platform.register_app platform (Te.app ~delta:500.0 ());
  Platform.start platform;
  let cluster = Switch_agent.create_cluster platform topo in
  for sw = 0 to n_switches - 1 do
    let flows =
      if sw = 1 then
        [|
          {
            Flow.flow_id = 100;
            src_switch = 1;
            dst_switch = 4;
            rate_bps = 10_000.0;
            starts_at = 0.0;
            current_path = Topology.path topo 1 4;
          };
        |]
      else [||]
    in
    ignore (Switch_agent.add cluster ~sw ~flows ())
  done;
  Switch_agent.connect_all cluster ();
  ignore
    (Engine.schedule_at engine (Simtime.of_sec 1.0) (fun () ->
         Switch_agent.send_all_lldp cluster));
  ignore
    (Engine.schedule_at engine (Simtime.of_sec 2.0) (fun () ->
         Switch_agent.send_all_lldp cluster));
  (engine, platform, topo, cluster)

let route_paths platform =
  List.filter_map
    (function key, Te.V_rerouted { r_path; _ } -> Some (int_of_string key, r_path) | _ -> None)
    (Platform.read_dict platform ~app:Te.app_name ~dict:Te.dict_route)

let test_reroute_repair_on_link_failure () =
  let engine, platform, _, cluster = setup () in
  (* Let the hot flow be detected and re-routed; both ring arcs between 1
     and 4 have equal length, so accept whichever BFS picked. *)
  Engine.run_until engine (Simtime.of_sec 6.0);
  let initial =
    match route_paths platform with
    | [ (100, path) ] -> path
    | l -> Alcotest.failf "expected flow 100 routed, got %d records" (List.length l)
  in
  Alcotest.(check int) "path spans an arc of the ring" 4 (List.length initial);
  Alcotest.(check int) "starts at 1" 1 (List.hd initial);
  (* Kill the middle link of that path. *)
  let a, b =
    match initial with _ :: x :: y :: _ -> (x, y) | _ -> Alcotest.fail "path too short"
  in
  Switch_agent.fail_link cluster a b;
  Engine.run_until engine (Simtime.of_sec 9.0);
  (* Discovery retired the link on both sides. *)
  Alcotest.(check bool) "a no longer sees b" true
    (not (List.mem b (Discovery.neighbors_of platform ~switch:a)));
  Alcotest.(check bool) "b no longer sees a" true
    (not (List.mem a (Discovery.neighbors_of platform ~switch:b)));
  (* TE repaired the flow around the other arc. *)
  match route_paths platform with
  | [ (100, path) ] ->
    Alcotest.(check bool) "repaired path avoids the dead link" true
      (not (Beehive_apps.Te_common.path_uses_link path ~a ~b));
    Alcotest.(check bool) "path changed" true (path <> initial);
    Alcotest.(check int) "still 1 -> 4" 4 (List.nth path (List.length path - 1))
  | l -> Alcotest.failf "expected flow 100 still routed, got %d records" (List.length l)

let test_unrepairable_route_dropped () =
  (* On a pure tree there is no alternative: the repair deletes the
     record instead of installing a bogus path. *)
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:2) in
  let topo = Topology.tree ~arity:1 ~n_switches:3 in
  for sw = 0 to 2 do
    Channels.assign_switch (Platform.channels platform) ~switch:sw ~hive:(sw mod 2)
  done;
  Platform.register_app platform (Driver.app ());
  Platform.register_app platform (Discovery.app ());
  Platform.register_app platform (Te.app ~delta:500.0 ());
  Platform.start platform;
  let cluster = Switch_agent.create_cluster platform topo in
  for sw = 0 to 2 do
    let flows =
      if sw = 0 then
        [|
          {
            Flow.flow_id = 7;
            src_switch = 0;
            dst_switch = 2;
            rate_bps = 10_000.0;
            starts_at = 0.0;
            current_path = Topology.path topo 0 2;
          };
        |]
      else [||]
    in
    ignore (Switch_agent.add cluster ~sw ~flows ())
  done;
  Switch_agent.connect_all cluster ();
  ignore
    (Engine.schedule_at engine (Simtime.of_sec 1.0) (fun () ->
         Switch_agent.send_all_lldp cluster));
  ignore
    (Engine.schedule_at engine (Simtime.of_sec 2.0) (fun () ->
         Switch_agent.send_all_lldp cluster));
  Engine.run_until engine (Simtime.of_sec 6.0);
  Alcotest.(check int) "flow routed" 1 (Te.rerouted_count platform);
  Switch_agent.fail_link cluster 1 2;
  Engine.run_until engine (Simtime.of_sec 9.0);
  Alcotest.(check int) "unrepairable record dropped" 0 (Te.rerouted_count platform)

let test_dataplane_stops_on_dead_link () =
  let engine, _, topo, cluster = setup () in
  Engine.run_until engine (Simtime.of_sec 3.0);
  let s2 = Option.get (Switch_agent.get cluster 2) in
  Beehive_openflow.Flow_table.apply (Switch_agent.flow_table s2)
    {
      Beehive_openflow.Flow_table.fm_switch = 2;
      fm_command = Beehive_openflow.Flow_table.Add;
      fm_priority = 5;
      fm_match = Beehive_openflow.Flow_table.match_dst_mac 9L;
      fm_actions =
        [ Beehive_openflow.Flow_table.Output (Topology.port_towards topo ~src:2 ~dst:3) ];
    };
  Switch_agent.fail_link cluster 2 3;
  let dropped = Switch_agent.packets_dropped cluster in
  Switch_agent.inject_host_packet s2 ~in_port:100 ~src_mac:1L ~dst_mac:9L;
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 1.0));
  Alcotest.(check int) "packet dropped at dead link" (dropped + 1)
    (Switch_agent.packets_dropped cluster)

let suite =
  [
    ( "link_failure",
      [
        Alcotest.test_case "re-route repaired around failure" `Quick
          test_reroute_repair_on_link_failure;
        Alcotest.test_case "unrepairable route dropped" `Quick test_unrepairable_route_dropped;
        Alcotest.test_case "dataplane stops on dead link" `Quick
          test_dataplane_stops_on_dead_link;
      ] );
  ]
