module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module Registry = Beehive_core.Registry
module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Stats = Beehive_core.Stats
module Instrumentation = Beehive_core.Instrumentation
module Store = Beehive_store.Store
module Membership = Beehive_elastic.Membership

type Message.payload += E_put of string

type config = {
  e_hives : int;
  e_joins : int;
  e_keys : int;
  e_phase : Simtime.t;
  e_seed : int;
}

let default_config =
  {
    e_hives = 4;
    e_joins = 2;
    e_keys = 24;
    e_phase = Simtime.of_sec 5.0;
    e_seed = 11;
  }

type phase_stats = {
  p_label : string;
  p_members : int;
  p_processed : int;
  p_busiest_hive : int;
  p_busiest_share : float;
}

type report = {
  r_before : phase_stats;
  r_scaled : phase_stats;
  r_drained : phase_stats;
  r_joined : int list;
  r_drain_hive : int;
  r_drain_cells : int;
  r_drain_completed : bool;
  r_decommissioned : bool;
  r_rebalance_migrations : int;
  r_last_drain_us : int;
  r_integrity : (string * int) list;
  r_dead_letters : int;
  r_quarantined : int;
}

let app_name = "elastic.kv"
let dict = "store"

let kv_app =
  App.create ~name:app_name ~dicts:[ dict ]
    [
      App.handler ~kind:"elastic.put"
        ~map:(fun msg ->
          match msg.Message.payload with
          | E_put key -> Mapping.with_key dict key
          | _ -> Mapping.Drop)
        (fun ctx msg ->
          match msg.Message.payload with
          | E_put key ->
            Context.update ctx ~dict ~key (function
              | Some (Value.V_int n) -> Some (Value.V_int (n + 1))
              | _ -> Some (Value.V_int 1))
          | _ -> ());
    ]

(* Attribute each workload bee's processed-count delta over a phase to
   the hive it ends the phase on. The instrumentation app's own bees are
   excluded: collectors ride on every hive by construction and would blur
   exactly the imbalance this experiment measures. *)
let snapshot platform =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (v : Platform.bee_view) ->
      if not (String.equal v.Platform.view_app Instrumentation.app_name) then
        match Platform.bee_stats platform v.Platform.view_id with
        | Some st -> Hashtbl.replace tbl v.Platform.view_id (Stats.processed st)
        | None -> ())
    (Platform.live_bees platform);
  tbl

let phase_stats ~label ~baseline platform =
  let per_hive = Hashtbl.create 8 in
  let total = ref 0 in
  List.iter
    (fun (v : Platform.bee_view) ->
      if not (String.equal v.Platform.view_app Instrumentation.app_name) then
        match Platform.bee_stats platform v.Platform.view_id with
        | Some st ->
          let before =
            Option.value ~default:0 (Hashtbl.find_opt baseline v.Platform.view_id)
          in
          let d = Stats.processed st - before in
          if d > 0 then begin
            total := !total + d;
            Hashtbl.replace per_hive v.Platform.view_hive
              (d + Option.value ~default:0 (Hashtbl.find_opt per_hive v.Platform.view_hive))
          end
        | None -> ())
    (Platform.live_bees platform);
  let busiest_hive, busiest =
    Hashtbl.fold (fun h d ((_, bd) as b) -> if d > bd then (h, d) else b) per_hive (-1, 0)
  in
  {
    p_label = label;
    p_members = Platform.member_count platform;
    p_processed = !total;
    p_busiest_hive = busiest_hive;
    p_busiest_share =
      (if !total = 0 then 0.0 else float_of_int busiest /. float_of_int !total);
  }

let put_period = Simtime.of_ms 2

let run config =
  let engine = Engine.create ~seed:config.e_seed () in
  let pcfg =
    {
      (Platform.default_config ~n_hives:config.e_hives) with
      Platform.durability = Some Store.default_config;
    }
  in
  let platform = Platform.create engine pcfg in
  Platform.register_app platform kv_app;
  (* The join half of the rebalancer: scale-out seeds freshly joined
     empty hives with the busiest bees; load-balance then keeps shares
     even under the usual traffic-driven rules. *)
  let _instr =
    Instrumentation.install platform
      {
        Instrumentation.window = Simtime.of_ms 200;
        optimize_every = Simtime.of_ms 500;
        optimize = true;
        policy =
          Instrumentation.combined_policy
            [
              Instrumentation.scale_out_policy;
              Instrumentation.load_balance_policy;
            ];
      }
  in
  let membership = Membership.create platform in
  Platform.start platform;
  (* Steady load: one put every 2 ms, cycling keys, injected from a
     rotating alive member so every hive sources traffic. *)
  let tick = ref 0 in
  ignore
    (Engine.every engine put_period (fun () ->
         incr tick;
         let members =
           List.filter (Platform.placeable platform) (Platform.members platform)
         in
         match members with
         | [] -> ()
         | ms ->
           let from = List.nth ms (!tick mod List.length ms) in
           Platform.inject platform ~from:(Channels.Hive from) ~kind:"elastic.put"
             (E_put (Printf.sprintf "k%d" (!tick mod config.e_keys)))));
  let run_phase label =
    let baseline = snapshot platform in
    Engine.run_until engine (Simtime.add (Engine.now engine) config.e_phase);
    phase_stats ~label ~baseline platform
  in
  (* Phase 1: the loaded initial cluster. *)
  let before = run_phase "before" in
  (* Phase 2: join fresh hives; the optimizer pulls work onto them. *)
  let joined = List.init config.e_joins (fun _ -> Membership.add_hive membership) in
  let scaled = run_phase "scaled" in
  (* Phase 3: scale back in — drain the busiest hive and decommission it
     the moment the drain completes. *)
  let victim =
    if scaled.p_busiest_hive >= 0 then scaled.p_busiest_hive else config.e_hives - 1
  in
  ignore (Membership.drain membership ~auto_decommission:true victim);
  let drained = run_phase "drained" in
  {
    r_before = before;
    r_scaled = scaled;
    r_drained = drained;
    r_joined = joined;
    r_drain_hive = victim;
    r_drain_cells = Registry.cells_on_hive (Platform.registry platform) ~hive:victim;
    r_drain_completed = Membership.drain_completed membership victim;
    r_decommissioned = Platform.hive_decommissioned platform victim;
    r_rebalance_migrations = Membership.rebalance_migrations membership;
    r_last_drain_us = Membership.last_drain_us membership;
    r_integrity =
      List.filter
        (fun (k, _) -> String.starts_with ~prefix:"integrity." k)
        (Platform.gauges platform);
    r_dead_letters = (match Platform.store platform with
      | Some s -> List.length (Beehive_store.Store.dead_letters s)
      | None -> 0);
    r_quarantined = Platform.total_quarantined platform;
  }

let pp_phase ppf p =
  Format.fprintf ppf "%-8s %8d members  %10d processed   busiest hive %d at %.1f%%"
    p.p_label p.p_members p.p_processed p.p_busiest_hive (100.0 *. p.p_busiest_share)

let render ppf r =
  Format.fprintf ppf "@[<v>=== elastic scale-out / scale-in ===@,%a@,%a@,%a@,@]"
    pp_phase r.r_before pp_phase r.r_scaled pp_phase r.r_drained;
  Format.fprintf ppf
    "@[<v>joined hives              : [%s]@,\
     busiest share             : %.1f%% -> %.1f%% after scale-out@,\
     drained hive              : %d (busiest after scale-out)@,\
     drain completed           : %b (%.1f ms simulated)@,\
     cells left on drained hive: %d@,\
     decommissioned            : %b@,\
     rebalance migrations      : %d@,\
     storage dead letters      : %d@,\
     quarantined messages      : %d"
    (String.concat "; " (List.map string_of_int r.r_joined))
    (100.0 *. r.r_before.p_busiest_share)
    (100.0 *. r.r_scaled.p_busiest_share)
    r.r_drain_hive r.r_drain_completed
    (float_of_int r.r_last_drain_us /. 1000.0)
    r.r_drain_cells r.r_decommissioned r.r_rebalance_migrations
    r.r_dead_letters r.r_quarantined;
  List.iter (fun (k, v) -> Format.fprintf ppf "@,%-26s: %d" k v) r.r_integrity;
  Format.fprintf ppf "@]@."

let checks r =
  [
    ( "busiest-hive busy share decreases after joining",
      r.r_scaled.p_busiest_share < r.r_before.p_busiest_share );
    ("drain completed", r.r_drain_completed);
    ("drained hive holds zero cells", r.r_drain_cells = 0);
    ("drained hive decommissioned", r.r_decommissioned);
    ("rebalancer actually moved bees", r.r_rebalance_migrations > 0);
    ( "no dead letters or quarantined messages",
      r.r_dead_letters = 0 && r.r_quarantined = 0 );
  ]
