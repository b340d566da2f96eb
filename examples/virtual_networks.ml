(* Network virtualization on Beehive (Section 4).

   Creates two tenant virtual networks sharing one physical control
   plane, attaches ports, and sends packets. The platform shards all
   processing by virtual network id: each VN is one bee, isolation is
   structural, and — the paper's motivating example for runtime
   optimization — when a VN's traffic starts arriving at a different
   hive (say the tenant migrated to another data center), the optimizer
   moves the VN's bee next to it automatically.

   Run with: dune exec examples/virtual_networks.exe *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module Instrumentation = Beehive_core.Instrumentation
module Netvirt = Beehive_apps.Netvirt

let () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:4) in
  Platform.register_app platform (Netvirt.app ());
  let _instr =
    Instrumentation.install platform
      {
        Instrumentation.default_config with
        optimize = true;
        policy = Instrumentation.greedy_source_policy ~min_messages:3;
      }
  in
  Platform.start platform;
  let inj hive kind payload = Platform.inject platform ~from:(Channels.Hive hive) ~kind payload in

  (* Tenant setup: VN "blue" managed from hive 0, VN "red" from hive 2. *)
  inj 0 Netvirt.k_create (Netvirt.Create_vnet { cv_vnet = "blue"; cv_tenant = "acme" });
  inj 2 Netvirt.k_create (Netvirt.Create_vnet { cv_vnet = "red"; cv_tenant = "globex" });
  Engine.run_until engine (Simtime.of_sec 0.5);
  inj 0 Netvirt.k_attach (Netvirt.Attach_port { ap_vnet = "blue"; ap_switch = 1; ap_port = 10; ap_mac = 0xB1L });
  inj 0 Netvirt.k_attach (Netvirt.Attach_port { ap_vnet = "blue"; ap_switch = 7; ap_port = 11; ap_mac = 0xB2L });
  inj 2 Netvirt.k_attach (Netvirt.Attach_port { ap_vnet = "red"; ap_switch = 1; ap_port = 12; ap_mac = 0xE1L });
  Engine.run_until engine (Simtime.of_sec 1.0);

  let show_placement label =
    Format.printf "%s@." label;
    List.iter
      (fun vn ->
        match
          Platform.find_owner platform ~app:Netvirt.app_name
            (Beehive_core.Cell.cell Netvirt.dict_vnets vn)
        with
        | Some bee ->
          let v = Option.get (Platform.bee_view platform bee) in
          Format.printf "  VN %-5s -> bee %d on hive %d (tenant %s, %d ports)@." vn bee
            v.Platform.view_hive
            (Option.value ~default:"?" (Netvirt.vnet_tenant platform ~vnet:vn))
            (List.length (Netvirt.vnet_ports platform ~vnet:vn))
        | None -> Format.printf "  VN %-5s -> (no bee)@." vn)
      [ "blue"; "red" ]
  in
  show_placement "initial placement (bees created where the tenant first spoke):";

  (* Isolation: a blue packet cannot reach a red MAC. *)
  inj 0 Netvirt.k_packet (Netvirt.Vn_packet { vp_vnet = "blue"; vp_src_mac = 0xB1L; vp_dst_mac = 0xB2L });
  inj 0 Netvirt.k_packet (Netvirt.Vn_packet { vp_vnet = "blue"; vp_src_mac = 0xB1L; vp_dst_mac = 0xE1L });
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 1.0));
  Format.printf "@.blue -> blue forwards; blue -> red is an isolation drop (check the@.";
  Format.printf "nv.isolation_drop counter in your own listener app).@.@.";

  (* The "virtual network migrated to another data center" scenario:
     blue's packets now enter at hive 3. The optimizer notices and
     migrates blue's bee — no operator action, no app change. *)
  let stop_at = Simtime.add (Engine.now engine) (Simtime.of_sec 15.0) in
  let tick =
    Engine.every engine (Simtime.of_ms 100) (fun () ->
        inj 3 Netvirt.k_packet
          (Netvirt.Vn_packet { vp_vnet = "blue"; vp_src_mac = 0xB1L; vp_dst_mac = 0xB2L }))
  in
  Engine.run_until engine stop_at;
  ignore (Engine.cancel engine tick);
  show_placement "after 15s of blue traffic arriving at hive 3 (optimizer enabled):";
  List.iter
    (fun (m : Platform.migration) ->
      Format.printf "  migration: bee %d hive %d -> %d (%s)@." m.Platform.mig_bee
        m.Platform.mig_src m.Platform.mig_dst m.Platform.mig_reason)
    (Platform.migrations platform)
