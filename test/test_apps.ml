(* Learning switch, NIB, network virtualization, Kandoo. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module Cell = Beehive_core.Cell
module Wire = Beehive_openflow.Wire
module FT = Beehive_openflow.Flow_table
module Learning_switch = Beehive_apps.Learning_switch
module Nib = Beehive_apps.Nib
module Netvirt = Beehive_apps.Netvirt
module Kandoo = Beehive_apps.Kandoo

let make_platform ?(n_hives = 4) apps =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives) in
  List.iter (Platform.register_app platform) apps;
  Platform.start platform;
  (engine, platform)

let drain engine = Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 1.0))

(* --- learning switch ------------------------------------------------- *)

let packet_in platform ~switch ~port ~src ~dst =
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:Wire.k_app_packet_in
    (Wire.App_packet_in { api_switch = switch; api_port = port; api_src_mac = src; api_dst_mac = dst })

let test_learning_switch_learns_and_floods () =
  let outs = ref [] in
  let listener =
    Beehive_core.App.create ~name:"test.out" ~dicts:[ "x" ]
      [
        Beehive_core.App.handler ~kind:Wire.k_app_packet_out
          ~map:(fun _ -> Beehive_core.Mapping.Local)
          (fun _ msg ->
            match msg.Beehive_core.Message.payload with
            | Wire.App_packet_out { apo_switch; apo_port; _ } -> outs := (apo_switch, apo_port) :: !outs
            | _ -> ());
      ]
  in
  let engine, platform = make_platform [ Learning_switch.app (); listener ] in
  (* Unknown destination: flood. *)
  packet_in platform ~switch:1 ~port:4 ~src:100L ~dst:200L;
  drain engine;
  Alcotest.(check (list (pair int int))) "flood" [ (1, -1) ] !outs;
  Alcotest.(check (option int)) "src learned" (Some 4)
    (Learning_switch.learned_port platform ~switch:1 ~mac:100L);
  outs := [];
  (* Reply: now the destination is known. *)
  packet_in platform ~switch:1 ~port:7 ~src:200L ~dst:100L;
  drain engine;
  Alcotest.(check (list (pair int int))) "unicast to learned port" [ (1, 4) ] !outs;
  Alcotest.(check (option int)) "dst learned too" (Some 7)
    (Learning_switch.learned_port platform ~switch:1 ~mac:200L);
  (* MAC moves port. *)
  packet_in platform ~switch:1 ~port:9 ~src:100L ~dst:200L;
  drain engine;
  Alcotest.(check (option int)) "relearns on move" (Some 9)
    (Learning_switch.learned_port platform ~switch:1 ~mac:100L)

let test_learning_switch_state_is_per_switch () =
  let engine, platform = make_platform [ Learning_switch.app () ] in
  packet_in platform ~switch:1 ~port:4 ~src:100L ~dst:200L;
  packet_in platform ~switch:2 ~port:5 ~src:100L ~dst:200L;
  drain engine;
  Alcotest.(check (option int)) "switch 1 table" (Some 4)
    (Learning_switch.learned_port platform ~switch:1 ~mac:100L);
  Alcotest.(check (option int)) "switch 2 table" (Some 5)
    (Learning_switch.learned_port platform ~switch:2 ~mac:100L);
  let o1 =
    Platform.find_owner platform ~app:Learning_switch.app_name
      (Cell.cell Learning_switch.dict_macs "1")
  in
  let o2 =
    Platform.find_owner platform ~app:Learning_switch.app_name
      (Cell.cell Learning_switch.dict_macs "2")
  in
  Alcotest.(check bool) "one bee per switch" true (o1 <> o2)

(* --- NIB -------------------------------------------------------------- *)

let test_nib_graph_ops () =
  let engine, platform = make_platform [ Nib.app () ] in
  let inj kind payload = Platform.inject platform ~from:(Channels.Hive 1) ~kind payload in
  inj Nib.k_add_node (Nib.Add_node { an_id = "sw1"; an_kind = "switch" });
  inj Nib.k_add_node (Nib.Add_node { an_id = "sw2"; an_kind = "switch" });
  inj Nib.k_add_node (Nib.Add_node { an_id = "h1"; an_kind = "host" });
  drain engine;
  inj Nib.k_add_link (Nib.Add_link { al_src = "sw1"; al_dst = "sw2" });
  inj Nib.k_add_link (Nib.Add_link { al_src = "sw2"; al_dst = "sw1" });
  inj Nib.k_add_link (Nib.Add_link { al_src = "sw1"; al_dst = "h1" });
  inj Nib.k_set_attr (Nib.Set_attr { sa_id = "sw1"; sa_key = "dpid"; sa_value = "0xa" });
  drain engine;
  Alcotest.(check bool) "node exists" true (Nib.node_exists platform "sw1");
  Alcotest.(check (list string)) "links sorted" [ "h1"; "sw2" ] (Nib.node_links platform "sw1");
  Alcotest.(check (list (pair string string))) "attrs" [ ("dpid", "0xa") ]
    (Nib.node_attrs platform "sw1");
  inj Nib.k_del_link (Nib.Del_link { dl_src = "sw1"; dl_dst = "sw2" });
  inj Nib.k_del_node (Nib.Del_node { dn_id = "h1" });
  drain engine;
  Alcotest.(check (list string)) "link removed" [ "h1" ] (Nib.node_links platform "sw1");
  Alcotest.(check bool) "node removed" false (Nib.node_exists platform "h1")

let test_nib_query_reply () =
  let infos = ref [] in
  let listener =
    Beehive_core.App.create ~name:"test.nibq" ~dicts:[ "x" ]
      [
        Beehive_core.App.handler ~kind:Nib.k_node_info
          ~map:(fun _ -> Beehive_core.Mapping.Local)
          (fun _ msg ->
            match msg.Beehive_core.Message.payload with
            | Nib.Node_info { ni_token; ni_exists; ni_kind; _ } ->
              infos := (ni_token, ni_exists, ni_kind) :: !infos
            | _ -> ());
      ]
  in
  let engine, platform = make_platform [ Nib.app (); listener ] in
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:Nib.k_add_node
    (Nib.Add_node { an_id = "sw1"; an_kind = "switch" });
  drain engine;
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:Nib.k_query
    (Nib.Query { q_id = "sw1"; q_token = 77 });
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:Nib.k_query
    (Nib.Query { q_id = "ghost"; q_token = 78 });
  drain engine;
  Alcotest.(check int) "two replies" 2 (List.length !infos);
  List.iter
    (fun (token, exists, kind) ->
      match token with
      | 77 ->
        Alcotest.(check bool) "sw1 exists" true exists;
        Alcotest.(check string) "kind" "switch" kind
      | 78 -> Alcotest.(check bool) "ghost missing" false exists
      | t -> Alcotest.failf "unexpected token %d" t)
    !infos

let test_nib_nodes_shard () =
  let engine, platform = make_platform [ Nib.app () ] in
  List.iteri
    (fun i id ->
      Platform.inject platform
        ~from:(Channels.Hive (i mod 4))
        ~kind:Nib.k_add_node
        (Nib.Add_node { an_id = id; an_kind = "switch" }))
    [ "a"; "b"; "c"; "d" ];
  drain engine;
  let owners =
    List.filter_map
      (fun id -> Platform.find_owner platform ~app:Nib.app_name (Cell.cell Nib.dict_nodes id))
      [ "a"; "b"; "c"; "d" ]
  in
  Alcotest.(check int) "one bee per node" 4 (List.length (List.sort_uniq Int.compare owners))

(* --- network virtualization ------------------------------------------ *)

let test_netvirt_forwarding_and_isolation () =
  let outs = ref [] in
  let drops = ref [] in
  let listener =
    Beehive_core.App.create ~name:"test.nv" ~dicts:[ "x" ]
      [
        Beehive_core.App.handler ~kind:Wire.k_app_packet_out
          ~map:(fun _ -> Beehive_core.Mapping.Local)
          (fun _ msg ->
            match msg.Beehive_core.Message.payload with
            | Wire.App_packet_out { apo_switch; apo_port; _ } -> outs := (apo_switch, apo_port) :: !outs
            | _ -> ());
        Beehive_core.App.handler ~kind:Netvirt.k_isolation_drop
          ~map:(fun _ -> Beehive_core.Mapping.Local)
          (fun _ msg ->
            match msg.Beehive_core.Message.payload with
            | Netvirt.Isolation_drop { id_vnet; _ } -> drops := id_vnet :: !drops
            | _ -> ());
      ]
  in
  let engine, platform = make_platform [ Netvirt.app (); listener ] in
  let inj kind payload = Platform.inject platform ~from:(Channels.Hive 0) ~kind payload in
  inj Netvirt.k_create (Netvirt.Create_vnet { cv_vnet = "blue"; cv_tenant = "acme" });
  inj Netvirt.k_create (Netvirt.Create_vnet { cv_vnet = "red"; cv_tenant = "evil" });
  drain engine;
  inj Netvirt.k_attach (Netvirt.Attach_port { ap_vnet = "blue"; ap_switch = 1; ap_port = 10; ap_mac = 100L });
  inj Netvirt.k_attach (Netvirt.Attach_port { ap_vnet = "blue"; ap_switch = 2; ap_port = 20; ap_mac = 101L });
  inj Netvirt.k_attach (Netvirt.Attach_port { ap_vnet = "red"; ap_switch = 1; ap_port = 11; ap_mac = 200L });
  drain engine;
  Alcotest.(check (option string)) "tenant" (Some "acme") (Netvirt.vnet_tenant platform ~vnet:"blue");
  Alcotest.(check int) "blue ports" 2 (List.length (Netvirt.vnet_ports platform ~vnet:"blue"));
  (* Intra-VN packet forwards to the right attachment. *)
  inj Netvirt.k_packet (Netvirt.Vn_packet { vp_vnet = "blue"; vp_src_mac = 100L; vp_dst_mac = 101L });
  drain engine;
  Alcotest.(check (list (pair int int))) "forwarded" [ (2, 20) ] !outs;
  (* Cross-VN destination: isolated, dropped. *)
  outs := [];
  inj Netvirt.k_packet (Netvirt.Vn_packet { vp_vnet = "blue"; vp_src_mac = 100L; vp_dst_mac = 200L });
  drain engine;
  Alcotest.(check (list (pair int int))) "no leak" [] !outs;
  Alcotest.(check (list string)) "isolation drop" [ "blue" ] !drops;
  (* Detach removes reachability. *)
  inj Netvirt.k_detach (Netvirt.Detach_port { dp_vnet = "blue"; dp_mac = 101L });
  drain engine;
  inj Netvirt.k_packet (Netvirt.Vn_packet { vp_vnet = "blue"; vp_src_mac = 100L; vp_dst_mac = 101L });
  drain engine;
  Alcotest.(check (list (pair int int))) "gone after detach" [] !outs

let test_netvirt_vnets_shard () =
  let engine, platform = make_platform [ Netvirt.app () ] in
  List.iteri
    (fun i vn ->
      Platform.inject platform
        ~from:(Channels.Hive (i mod 4))
        ~kind:Netvirt.k_create
        (Netvirt.Create_vnet { cv_vnet = vn; cv_tenant = "t" }))
    [ "vn0"; "vn1"; "vn2"; "vn3" ];
  drain engine;
  let owners =
    List.filter_map
      (fun vn -> Platform.find_owner platform ~app:Netvirt.app_name (Cell.cell Netvirt.dict_vnets vn))
      [ "vn0"; "vn1"; "vn2"; "vn3" ]
  in
  Alcotest.(check int) "one bee per vnet" 4 (List.length (List.sort_uniq Int.compare owners))

(* --- Kandoo ----------------------------------------------------------- *)

let stat_reply platform ~switch ~flow ~bytes =
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:Wire.k_app_stat_reply
    (Wire.Stat_reply
       {
         sr_switch = switch;
         sr_stats =
           {
             Wire.fs_flows = [| flow |];
             fs_srcs = [| switch |];
             fs_dsts = [| switch + 1 |];
             fs_bytes = [| bytes |];
           };
       })

let test_kandoo_elephant_detection () =
  let engine, platform =
    make_platform [ Kandoo.local_app (); Kandoo.root_app () ]
  in
  (* Two samples give a rate; flow 1 is an elephant, flow 2 is a mouse. *)
  stat_reply platform ~switch:3 ~flow:1 ~bytes:0.0;
  stat_reply platform ~switch:4 ~flow:2 ~bytes:0.0;
  drain engine;
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 1.0));
  stat_reply platform ~switch:3 ~flow:1 ~bytes:1_000_000.0;
  stat_reply platform ~switch:4 ~flow:2 ~bytes:100.0;
  drain engine;
  (match Kandoo.elephants platform with
  | [ (1, 3, rate) ] -> Alcotest.(check bool) "rate above threshold" true (rate > Beehive_apps.Te_common.delta)
  | l -> Alcotest.failf "expected exactly flow 1, got %d entries" (List.length l));
  (* Local state is per switch; root is centralized. *)
  let l3 =
    Platform.find_owner platform ~app:Kandoo.local_app_name (Cell.cell Kandoo.dict_local "3")
  in
  let l4 =
    Platform.find_owner platform ~app:Kandoo.local_app_name (Cell.cell Kandoo.dict_local "4")
  in
  Alcotest.(check bool) "local bees distinct" true (l3 <> l4)

let suite =
  [
    ( "apps",
      [
        Alcotest.test_case "learning switch learns/floods" `Quick
          test_learning_switch_learns_and_floods;
        Alcotest.test_case "learning switch per-switch state" `Quick
          test_learning_switch_state_is_per_switch;
        Alcotest.test_case "nib graph ops" `Quick test_nib_graph_ops;
        Alcotest.test_case "nib query/reply" `Quick test_nib_query_reply;
        Alcotest.test_case "nib nodes shard" `Quick test_nib_nodes_shard;
        Alcotest.test_case "netvirt forwarding+isolation" `Quick
          test_netvirt_forwarding_and_isolation;
        Alcotest.test_case "netvirt vnets shard" `Quick test_netvirt_vnets_shard;
        Alcotest.test_case "kandoo elephant detection" `Quick test_kandoo_elephant_detection;
      ] );
  ]
