(* OpenFlow substrate: flow tables, switch agents, the driver app. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Topology = Beehive_net.Topology
module Flow = Beehive_net.Flow
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module FT = Beehive_openflow.Flow_table
module Wire = Beehive_openflow.Wire
module Driver = Beehive_openflow.Driver
module Switch_agent = Beehive_openflow.Switch_agent

(* --- flow table ----------------------------------------------------- *)

let add_entry table ~priority ~fmatch ~actions =
  FT.apply table
    { FT.fm_switch = 0; fm_command = FT.Add; fm_priority = priority; fm_match = fmatch; fm_actions = actions }

(* The match of every field wildcarded. *)
let match_any = { FT.m_flow_id = None; m_src_mac = None; m_dst_mac = None; m_in_port = None }

(* A packet from host 1 on port 1. *)
let lookup t ~dst_mac = FT.lookup t ~src_mac:1L ~dst_mac ~in_port:1

let test_table_priority () =
  let t = FT.create () in
  add_entry t ~priority:1 ~fmatch:match_any ~actions:[ FT.To_controller ];
  add_entry t ~priority:100 ~fmatch:(FT.match_dst_mac 42L) ~actions:[ FT.Output 3 ];
  (match lookup t ~dst_mac:42L with
  | Some e -> Alcotest.(check int) "high priority wins" 100 e.FT.e_priority
  | None -> Alcotest.fail "no match");
  match lookup t ~dst_mac:7L with
  | Some e -> Alcotest.(check int) "falls to wildcard" 1 e.FT.e_priority
  | None -> Alcotest.fail "wildcard should match"

let test_table_wildcard_semantics () =
  let t = FT.create () in
  add_entry t ~priority:10 ~fmatch:(FT.match_flow 5) ~actions:[ FT.Output 1 ];
  Alcotest.(check bool) "a flow-id entry never matches a packet" true
    (lookup t ~dst_mac:5L = None);
  add_entry t ~priority:10 ~fmatch:(FT.match_dst_mac 5L) ~actions:[ FT.Output 1 ];
  Alcotest.(check bool) "dst mac matches" true (lookup t ~dst_mac:5L <> None);
  Alcotest.(check bool) "wrong value fails" true (lookup t ~dst_mac:6L = None)

let test_table_add_replace_modify_delete () =
  let t = FT.create () in
  add_entry t ~priority:5 ~fmatch:(FT.match_dst_mac 1L) ~actions:[ FT.Output 1 ];
  add_entry t ~priority:5 ~fmatch:(FT.match_dst_mac 1L) ~actions:[ FT.Output 2 ];
  Alcotest.(check int) "replace not duplicate" 1 (FT.length t);
  (match lookup t ~dst_mac:1L with
  | Some { FT.e_actions = [ FT.Output 2 ]; _ } -> ()
  | _ -> Alcotest.fail "replaced actions");
  FT.apply t
    { FT.fm_switch = 0; fm_command = FT.Modify; fm_priority = 5; fm_match = FT.match_dst_mac 1L;
      fm_actions = [ FT.Drop_packet ] };
  (match lookup t ~dst_mac:1L with
  | Some { FT.e_actions = [ FT.Drop_packet ]; _ } -> ()
  | _ -> Alcotest.fail "modify rewrote actions");
  FT.apply t
    { FT.fm_switch = 0; fm_command = FT.Delete; fm_priority = 0; fm_match = FT.match_dst_mac 1L;
      fm_actions = [] };
  Alcotest.(check int) "deleted" 0 (FT.length t)

let test_table_counters () =
  let t = FT.create () in
  add_entry t ~priority:1 ~fmatch:match_any ~actions:[ FT.Output 1 ];
  (match lookup t ~dst_mac:1L with
  | Some e ->
    FT.count e ~bytes:100.0;
    FT.count e ~bytes:50.0;
    Alcotest.(check int) "packets" 2 e.FT.e_packets;
    Alcotest.(check (float 0.01)) "bytes" 150.0 e.FT.e_bytes
  | None -> Alcotest.fail "no entry")

(* --- switch agent + driver end-to-end -------------------------------- *)

type Message.payload += Probe

let setup_cluster ?(n_hives = 2) ?(n_switches = 4) ?(per_switch = 2) ?(extra_apps = []) () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives) in
  let topo = Topology.tree ~arity:2 ~n_switches in
  for sw = 0 to n_switches - 1 do
    Channels.assign_switch (Platform.channels platform) ~switch:sw
      ~hive:(sw * n_hives / n_switches)
  done;
  Platform.register_app platform (Driver.app ());
  List.iter (Platform.register_app platform) extra_apps;
  Platform.start platform;
  let cluster = Switch_agent.create_cluster platform topo in
  let flows =
    Flow.generate (Rng.create 11) topo ~per_switch ~hot_fraction:0.5 ~base_rate:100.0
      ~hot_rate:1000.0 ()
  in
  for sw = 0 to n_switches - 1 do
    let sw_flows =
      Array.of_list
        (List.filter (fun (f : Flow.t) -> f.Flow.src_switch = sw) (Array.to_list flows))
    in
    ignore (Switch_agent.add cluster ~sw ~flows:sw_flows ())
  done;
  (engine, platform, topo, cluster)

let drain engine = Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 1.0))

let test_hello_switch_joined () =
  let joined = ref [] in
  let listener =
    App.create ~name:"test.listener" ~dicts:[ "seen" ]
      [
        App.handler ~kind:Wire.k_switch_joined
          ~map:(fun _ -> Mapping.Local)
          (fun _ctx msg ->
            match msg.Message.payload with
            | Wire.Switch_joined { sj_switch; sj_master } -> joined := (sj_switch, sj_master) :: !joined
            | _ -> ());
      ]
  in
  let engine, platform, _, cluster = setup_cluster ~extra_apps:[ listener ] () in
  Switch_agent.connect_all cluster ();
  drain engine;
  Alcotest.(check int) "all switches joined" 4 (List.length !joined);
  List.iter
    (fun (sw, master) ->
      Alcotest.(check int)
        (Printf.sprintf "switch %d master" sw)
        (Channels.master_of (Platform.channels platform) sw)
        master)
    !joined;
  (* Driver state has one cell per switch, on the master hive, pinned. *)
  List.iter
    (fun (sw, master) ->
      match
        Platform.find_owner platform ~app:Driver.app_name
          (Beehive_core.Cell.cell Driver.dict_switches (string_of_int sw))
      with
      | Some bee ->
        let v = Option.get (Platform.bee_view platform bee) in
        Alcotest.(check int) "driver bee on master" master v.Platform.view_hive;
        Alcotest.(check bool) "pinned: refuses to migrate" false
          (Platform.migrate_bee platform ~bee
             ~to_hive:((master + 1) mod Platform.n_hives platform)
             ~reason:"test")
      | None -> Alcotest.fail "no driver bee")
    !joined

let test_stat_roundtrip () =
  let replies = ref [] in
  let collector =
    App.create ~name:"test.collect" ~dicts:[ "s" ]
      [
        App.handler ~kind:Wire.k_app_stat_reply
          ~map:(fun _ -> Mapping.Local)
          (fun _ msg ->
            match msg.Message.payload with
            | Wire.Stat_reply { sr_switch; sr_stats } -> replies := (sr_switch, sr_stats) :: !replies
            | _ -> ());
      ]
  in
  let engine, platform, _, cluster = setup_cluster ~extra_apps:[ collector ] () in
  Switch_agent.connect_all cluster ();
  drain engine;
  Engine.run_until engine (Simtime.of_sec 2.0);
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:Wire.k_app_stat_query
    (Wire.Stat_query { sq_switch = 2 });
  drain engine;
  match !replies with
  | [ (2, stats) ] ->
    Alcotest.(check int) "2 flows per switch" 2 (Wire.n_stats stats);
    Array.iteri
      (fun i src ->
        Alcotest.(check int) "src is the switch" 2 src;
        Alcotest.(check bool) "bytes accumulated" true (stats.Wire.fs_bytes.(i) > 0.0))
      stats.Wire.fs_srcs
  | l -> Alcotest.failf "expected 1 reply from switch 2, got %d" (List.length l)

let test_flow_mod_applied_and_path_updated () =
  let engine, platform, topo, cluster = setup_cluster () in
  Switch_agent.connect_all cluster ();
  drain engine;
  let agent = Option.get (Switch_agent.get cluster 1) in
  let new_path = Topology.path topo 1 3 in
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:Wire.k_app_flow_mod
    (Wire.App_flow_mod
       {
         FT.fm_switch = 1;
         fm_command = FT.Add;
         fm_priority = 10;
         fm_match = FT.match_flow 2;  (* flow 2 originates at switch 1 *)
         fm_actions = [ FT.Set_path new_path ];
       });
  drain engine;
  Alcotest.(check int) "entry installed" 1 (FT.length (Switch_agent.flow_table agent));
  ()

let test_lldp_discovery () =
  let links = ref [] in
  let listener =
    App.create ~name:"test.links" ~dicts:[ "l" ]
      [
        App.handler ~kind:Wire.k_link_discovered
          ~map:(fun _ -> Mapping.Local)
          (fun _ msg ->
            match msg.Message.payload with
            | Wire.Link_discovered { ld_src_switch; ld_dst_switch; _ } ->
              links := (ld_src_switch, ld_dst_switch) :: !links
            | _ -> ());
      ]
  in
  let engine, _, topo, cluster = setup_cluster ~extra_apps:[ listener ] () in
  Switch_agent.connect_all cluster ();
  drain engine;
  Switch_agent.send_all_lldp cluster;
  drain engine;
  (* Every directed tree link is discovered exactly once per wave. *)
  let expected =
    List.concat_map
      (fun sw -> List.map (fun n -> (sw, n)) (Topology.neighbors topo sw))
      (List.init (Topology.n_switches topo) Fun.id)
  in
  Alcotest.(check int) "directed link count" (List.length expected) (List.length !links);
  List.iter
    (fun (a, b) ->
      if not (List.mem (a, b) !links) then Alcotest.failf "missing link %d->%d" a b)
    expected

let test_packet_forwarding_and_punt () =
  let punts = ref 0 in
  let listener =
    App.create ~name:"test.punts" ~dicts:[ "p" ]
      [
        App.handler ~kind:Wire.k_app_packet_in
          ~map:(fun _ -> Mapping.Local)
          (fun _ _ -> incr punts);
      ]
  in
  let engine, _, _, cluster = setup_cluster ~n_switches:3 ~extra_apps:[ listener ] () in
  Switch_agent.connect_all cluster ();
  drain engine;
  let s1 = Option.get (Switch_agent.get cluster 1) in
  (* No entries: the packet punts to the controller. *)
  Switch_agent.inject_host_packet s1 ~in_port:100 ~src_mac:5L ~dst_mac:6L;
  drain engine;
  Alcotest.(check int) "punted" 1 !punts;
  (* Install a host-port route: delivery counted. *)
  FT.apply (Switch_agent.flow_table s1)
    { FT.fm_switch = 1; fm_command = FT.Add; fm_priority = 10; fm_match = FT.match_dst_mac 6L;
      fm_actions = [ FT.Output 101 ] };
  let delivered = Switch_agent.packets_delivered cluster in
  Switch_agent.inject_host_packet s1 ~in_port:100 ~src_mac:5L ~dst_mac:6L;
  drain engine;
  Alcotest.(check int) "delivered to host port" (delivered + 1)
    (Switch_agent.packets_delivered cluster);
  (* Multi-hop: forward from switch 1 to switch 2 via the root. *)
  let s0 = Option.get (Switch_agent.get cluster 0) in
  let s2 = Option.get (Switch_agent.get cluster 2) in
  FT.apply (Switch_agent.flow_table s1)
    { FT.fm_switch = 1; fm_command = FT.Add; fm_priority = 10; fm_match = FT.match_dst_mac 9L;
      fm_actions = [ FT.Output 1 ] };
  FT.apply (Switch_agent.flow_table s0)
    { FT.fm_switch = 0; fm_command = FT.Add; fm_priority = 10; fm_match = FT.match_dst_mac 9L;
      fm_actions = [ FT.Output 2 ] };
  FT.apply (Switch_agent.flow_table s2)
    { FT.fm_switch = 2; fm_command = FT.Add; fm_priority = 10; fm_match = FT.match_dst_mac 9L;
      fm_actions = [ FT.Output 100 ] };
  let delivered = Switch_agent.packets_delivered cluster in
  Switch_agent.inject_host_packet s1 ~in_port:100 ~src_mac:5L ~dst_mac:9L;
  drain engine;
  Alcotest.(check int) "multi-hop delivery" (delivered + 1)
    (Switch_agent.packets_delivered cluster);
  (* Switch 2's host-port entry is the one that delivered it. *)
  Alcotest.(check (option int)) "egress switch" (Some 1)
    (Option.map
       (fun e -> e.FT.e_packets)
       (FT.lookup (Switch_agent.flow_table s2) ~src_mac:5L ~dst_mac:9L ~in_port:1))

let suite =
  [
    ( "openflow",
      [
        Alcotest.test_case "table priority" `Quick test_table_priority;
        Alcotest.test_case "table wildcard semantics" `Quick test_table_wildcard_semantics;
        Alcotest.test_case "table add/modify/delete" `Quick test_table_add_replace_modify_delete;
        Alcotest.test_case "table counters" `Quick test_table_counters;
        Alcotest.test_case "hello -> switch_joined" `Quick test_hello_switch_joined;
        Alcotest.test_case "stat request roundtrip" `Quick test_stat_roundtrip;
        Alcotest.test_case "flow mod applied" `Quick test_flow_mod_applied_and_path_updated;
        Alcotest.test_case "lldp discovery" `Quick test_lldp_discovery;
        Alcotest.test_case "packet forwarding and punt" `Quick test_packet_forwarding_and_punt;
      ] );
  ]
