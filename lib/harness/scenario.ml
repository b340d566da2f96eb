module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Topology = Beehive_net.Topology
module Flow = Beehive_net.Flow
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module Instrumentation = Beehive_core.Instrumentation
module Switch_agent = Beehive_openflow.Switch_agent
module Driver = Beehive_openflow.Driver

type te_variant =
  | Te_naive
  | Te_decoupled
  | Te_external

type config = {
  n_hives : int;
  n_switches : int;
  tree_arity : int;
  flows_per_switch : int;
  hot_fraction : float;
  flow_start_spread : float;
  seed : int;
  warmup : Simtime.t;
  duration : Simtime.t;
  te : te_variant;
  optimize : bool;
  adversarial_pin : bool;
}

let default_config =
  {
    n_hives = 40;
    n_switches = 400;
    tree_arity = 4;
    flows_per_switch = 100;
    hot_fraction = 0.1;
    flow_start_spread = 40.0;
    seed = 42;
    warmup = Simtime.of_sec 5.0;
    duration = Simtime.of_sec 60.0;
    te = Te_naive;
    optimize = false;
    adversarial_pin = false;
  }

let quick_config =
  {
    default_config with
    n_hives = 8;
    n_switches = 48;
    flows_per_switch = 20;
    flow_start_spread = 6.0;
    warmup = Simtime.of_sec 3.0;
    duration = Simtime.of_sec 10.0;
  }

type t = {
  cfg : config;
  engine : Engine.t;
  platform : Platform.t;
  topo : Topology.t;
  flows : Flow.t array;
  cluster : Switch_agent.cluster;
  instr : Instrumentation.handle;
  store : Beehive_core.Ext_store.t option;
}

let te_app_name cfg =
  match cfg.te with
  | Te_naive -> Beehive_apps.Te_naive.app_name
  | Te_decoupled -> Beehive_apps.Te_decoupled.app_name
  | Te_external -> Beehive_apps.Te_external.app_name

(* Flow rates in bytes/s: an ordinary flow runs at half the TE threshold
   ({!Te_common.delta}), a hot one at two and a half times it. *)
let base_rate = 50_000.0
let hot_rate = 250_000.0

let build cfg =
  let engine = Engine.create ~seed:cfg.seed () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:cfg.n_hives) in
  let topo = Topology.tree ~arity:cfg.tree_arity ~n_switches:cfg.n_switches in
  (* Contiguous blocks of switches per master hive. *)
  let per_hive = max 1 ((cfg.n_switches + cfg.n_hives - 1) / cfg.n_hives) in
  for sw = 0 to cfg.n_switches - 1 do
    Channels.assign_switch (Platform.channels platform) ~switch:sw
      ~hive:(min (cfg.n_hives - 1) (sw / per_hive))
  done;
  let flow_rng = Rng.split (Engine.rng engine) in
  let flows =
    Flow.generate flow_rng topo ~per_switch:cfg.flows_per_switch
      ~hot_fraction:cfg.hot_fraction ~base_rate ~hot_rate
      ~start_spread:cfg.flow_start_spread ()
  in
  Platform.register_app platform (Driver.app ());
  let store =
    match cfg.te with
    | Te_naive ->
      Platform.register_app platform (Beehive_apps.Te_naive.app ());
      None
    | Te_decoupled ->
      Platform.register_app platform (Beehive_apps.Te_decoupled.app ());
      None
    | Te_external ->
      let store = Beehive_core.Ext_store.create platform in
      Platform.register_app platform (Beehive_apps.Te_external.app ~store);
      Some store
  in
  let instr =
    Instrumentation.install platform
      { Instrumentation.default_config with optimize = cfg.optimize }
  in
  Platform.start platform;
  let cluster = Switch_agent.create_cluster platform topo in
  (* One pass groups the flows by source switch, each group in flow
     order. *)
  let by_switch = Array.make cfg.n_switches [] in
  for i = Array.length flows - 1 downto 0 do
    let f = flows.(i) in
    by_switch.(f.Flow.src_switch) <- f :: by_switch.(f.Flow.src_switch)
  done;
  Array.iteri
    (fun sw fs -> ignore (Switch_agent.add cluster ~sw ~flows:(Array.of_list fs) ()))
    by_switch;
  Switch_agent.connect_all cluster ~stagger:(Simtime.of_ms 1) ();
  (* Two LLDP waves confirm every link bidirectionally. *)
  ignore
    (Engine.schedule_at engine (Simtime.of_sec 1.0) (fun () ->
         Switch_agent.send_all_lldp cluster));
  ignore
    (Engine.schedule_at engine (Simtime.of_sec 2.0) (fun () ->
         Switch_agent.send_all_lldp cluster));
  { cfg; engine; platform; topo; flows; cluster; instr; store }

let adversarial_placement t =
  let app = te_app_name t.cfg in
  List.iter
    (fun (v : Platform.bee_view) ->
      if
        String.equal v.Platform.view_app app
        && (not v.Platform.view_is_local)
        && v.Platform.view_hive <> 0
      then
        ignore
          (Platform.migrate_bee t.platform ~bee:v.Platform.view_id ~to_hive:0
             ~reason:"adversarial initial placement"))
    (Platform.live_bees t.platform)

let run t =
  Engine.run_until t.engine t.cfg.warmup;
  if t.cfg.adversarial_pin then begin
    adversarial_placement t;
    (* Let the forced migrations land before measuring. *)
    Engine.run_until t.engine (Simtime.add t.cfg.warmup (Simtime.of_sec 1.0))
  end;
  Channels.reset_accounting (Platform.channels t.platform);
  let finish = Simtime.add (Engine.now t.engine) t.cfg.duration in
  Engine.run_until t.engine finish

let config t = t.cfg
let engine t = t.engine
let platform t = t.platform
let flows t = t.flows
let matrix t = Channels.matrix (Platform.channels t.platform)
let bandwidth t = Channels.bandwidth (Platform.channels t.platform)
let ext_store t = t.store
let instrumentation t = t.instr
