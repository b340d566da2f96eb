module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Cell = Beehive_core.Cell
module Raft_replication = Beehive_core.Raft_replication
module Failure_detector = Beehive_core.Failure_detector
module Transport = Beehive_net.Transport
module Store = Beehive_store.Store
module Membership = Beehive_elastic.Membership

type Message.payload +=
  | Ck_put of string
  | Ck_read_all
  | Ck_fwd of string
  | Ck_poison of string
  | Lk_op of { lk_id : int; lk_call : History.call }

let k_put = "check.put"
let k_read = "check.read_all"
let k_fwd = "check.fwd"
let k_poison = "check.poison"
let app_name = "check.kv"
let dict = "store"
let fwd_app_name = "check.fwd"
let fwd_dict = "journal"
let key_name k = Printf.sprintf "k%d" k

(* The check workload: a key-sharded counter plus the centralizing
   whole-dict reader, mirroring the patterns the paper's apps use (and
   the two patterns that found the historical bugs). *)
let kv_app ~replicated =
  let on_put =
    App.handler ~kind:k_put
      ~map:(fun msg ->
        match msg.Message.payload with
        | Ck_put key -> Mapping.with_key dict key
        | _ -> Mapping.Drop)
      (fun ctx msg ->
        match msg.Message.payload with
        | Ck_put key ->
          Context.update ctx ~dict ~key (function
            | Some (Value.V_int n) -> Some (Value.V_int (n + 1))
            | _ -> Some (Value.V_int 1))
        | _ -> ())
  in
  let on_read_all =
    App.handler ~kind:k_read
      ~map:(fun _ -> Mapping.whole_dict dict)
      (fun ctx _ ->
        let n = ref 0 in
        Context.iter_dict ctx ~dict (fun _ _ -> incr n);
        Context.set ctx ~dict ~key:"__total" (Value.V_int !n))
  in
  App.create ~name:app_name ~dicts:[ dict ] ~replicated [ on_put; on_read_all ]

(* The outbox workload's first pipeline stage: journal the forward and
   emit the kv put inside the same transaction. End-to-end exactly-once
   is then a per-key equality between the journal and the kv counter —
   the emit either rode the commit or never happened, and must apply
   exactly once downstream, across any crash/partition/migration mix.
   The poison handler always raises: containment means it burns its
   retry budget into quarantine while everything else stays green. *)
exception Poisoned of string

let fwd_app ~replicated =
  let on_fwd =
    App.handler ~kind:k_fwd
      ~map:(fun msg ->
        match msg.Message.payload with
        | Ck_fwd key -> Mapping.with_key fwd_dict key
        | _ -> Mapping.Drop)
      (fun ctx msg ->
        match msg.Message.payload with
        | Ck_fwd key ->
          Context.update ctx ~dict:fwd_dict ~key (function
            | Some (Value.V_int n) -> Some (Value.V_int (n + 1))
            | _ -> Some (Value.V_int 1));
          Context.emit ctx ~kind:k_put (Ck_put key)
        | _ -> ())
  in
  let on_poison =
    App.handler ~kind:k_poison
      ~map:(fun msg ->
        match msg.Message.payload with
        | Ck_poison key -> Mapping.with_key fwd_dict key
        | _ -> Mapping.Drop)
      (fun ctx msg ->
        match msg.Message.payload with
        | Ck_poison key ->
          (* A half-done write and emit that must roll back, together,
             with every attempt. *)
          Context.set ctx ~dict:fwd_dict ~key (Value.V_int 999_999);
          Context.emit ctx ~kind:k_put (Ck_put key);
          raise (Poisoned key)
        | _ -> ())
  in
  App.create ~name:fwd_app_name ~dicts:[ fwd_dict ] ~replicated [ on_fwd; on_poison ]

type cfg = {
  r_profile : Script.profile;
  r_n_hives : int;
  r_ticks : int;
  r_seed : int;
  r_lin : bool;
  r_outbox : bool;
  r_inject : Platform.bug option;
}

let make_cfg ?(n_hives = 4) ?(ticks = 30) ?(lin = false) ?(outbox = false) ?inject ~seed
    profile =
  if n_hives <= 0 then invalid_arg "Runner.make_cfg: need at least one hive";
  (* A profile that breaks the workloads' acknowledgement model stands
     them down even when the sweep enables them globally. *)
  let acked = (Script.spec profile).Script.sp_acked_workloads in
  {
    r_profile = profile;
    r_n_hives = n_hives;
    r_ticks = ticks;
    r_seed = seed;
    r_lin = lin && acked;
    r_outbox = outbox && acked;
    r_inject = inject;
  }

type stats = {
  s_events : int;
  s_processed : int;
  s_retransmits : int;
  s_puts : int;
  s_lin_ops : int;
  s_lin_checked : int;
}

type outcome =
  | Pass of stats
  | Fail of Monitor.violation

(* Joins are unbounded in scripts; cap actual growth so shrunk traces
   stay readable and the id space the nemesis draws from stays honest. *)
let max_joins = 2

(* --- Linearizability workload ---------------------------------------- *)

let lin_app_name = "check.lin"
let lin_dict = "reg"
let k_lin = "check.lin.op"
let lin_n_keys = 4
let lin_clients = 4
let lin_key i = Printf.sprintf "x%d" i

(* Client pacing, microseconds: think time between ops and how long a
   client waits before giving up on an answer and moving on (the op then
   stays open — an Info entry whose interval extends to infinity). *)
let lin_think_min = 100
let lin_think_spread = 300
let lin_patience = 2500

(* Spawns the recorder, the dictionary app the clients talk to, and
   [lin_clients] closed-loop clients issuing get/put/del and two-key
   transactional swaps through the normal bee path (so the ops ride
   migrations, merges, crashes and partitions like any app traffic).

   The acknowledgement boundary is chosen so that a fault-free-looking
   completion really is one. With durability on, a handler commit is
   only in-memory until the next group commit — a crash inside that
   window rolls the WAL batch back (Store.drop_pending), so acking at
   commit would let the nemesis manufacture genuine-but-unwanted
   violations. Instead every op that wrote, or whose read observed
   un-fsynced writes, queues on its hive and completes at that hive's
   next fsync; a crash of the hive clears its queue (those ops stay
   Info — their effects are gone, which is exactly what Info means).
   Without durability the only profile in play is crash-free Migration,
   where the commit itself is a safe acknowledgement point.

   The app is deliberately unreplicated: under Raft a failover may
   legitimately recover the quorum-committed prefix rather than the
   local WAL, a divergence owned by the raft monitors, not by this
   workload's fsync-based acknowledgements. *)
let install_lin cfg engine platform =
  let recorder = History.create () in
  let durable = (Script.spec cfg.r_profile).Script.sp_durability in
  let acks : (int, (int * History.outcome) list ref) Hashtbl.t = Hashtbl.create 8 in
  let ack_queue hive =
    match Hashtbl.find_opt acks hive with
    | Some q -> q
    | None ->
      let q = ref [] in
      Hashtbl.add acks hive q;
      q
  in
  if durable then begin
    Platform.on_fsync platform (fun hive ->
        let q = ack_queue hive in
        let ready = List.rev !q in
        q := [];
        List.iter
          (fun (id, outcome) ->
            History.complete_ok recorder ~id ~now:(Engine.now engine) outcome)
          ready);
    Platform.on_hive platform (fun hive ev ->
        if ev = Platform.Crashed then
          match Hashtbl.find_opt acks hive with
          | Some q -> q := []
          | None -> ())
  end;
  let as_int = function Some (Value.V_int n) -> Some n | Some _ | None -> None in
  let handler =
    App.handler ~kind:k_lin
      ~map:(fun msg ->
        match msg.Message.payload with
        | Lk_op { lk_call; _ } -> (
          match lk_call with
          | History.Get k | History.Del k -> Mapping.with_key lin_dict k
          | History.Put (k, _) -> Mapping.with_key lin_dict k
          | History.Txn kvs ->
            Mapping.with_keys (List.map (fun (k, _) -> (lin_dict, k)) kvs))
        | _ -> Mapping.Drop)
      (fun ctx msg ->
        match msg.Message.payload with
        | Lk_op { lk_id; lk_call } ->
          let outcome =
            match lk_call with
            | History.Get k ->
              History.Got (as_int (Context.get ctx ~dict:lin_dict ~key:k))
            | History.Put (k, v) ->
              Context.set ctx ~dict:lin_dict ~key:k (Value.V_int v);
              History.Done
            | History.Del k ->
              Context.del ctx ~dict:lin_dict ~key:k;
              History.Done
            | History.Txn kvs ->
              let olds =
                List.map
                  (fun (k, _) -> as_int (Context.get ctx ~dict:lin_dict ~key:k))
                  kvs
              in
              List.iter
                (fun (k, v) -> Context.set ctx ~dict:lin_dict ~key:k (Value.V_int v))
                kvs;
              History.Old olds
          in
          let ack_now () =
            History.complete_ok recorder ~id:lk_id ~now:(Context.now ctx) outcome
          in
          if durable then begin
            let writes =
              match lk_call with History.Get _ -> false | _ -> true
            in
            let observed_pending =
              match Platform.store platform with
              | Some s -> Store.pending_writes s ~bee:(Context.bee_id ctx) > 0
              | None -> false
            in
            if writes || observed_pending then begin
              let q = ack_queue (Context.hive_id ctx) in
              q := (lk_id, outcome) :: !q
            end
            else ack_now ()
          end
          else ack_now ()
        | _ -> ())
  in
  Platform.register_app platform
    (App.create ~name:lin_app_name ~dicts:[ lin_dict ] ~replicated:false
       [ handler ]);
  let vals = ref 0 in
  let horizon = Simtime.of_us (cfg.r_ticks * 1000) in
  for c = 0 to lin_clients - 1 do
    let crng = Rng.split (Engine.rng engine) in
    let fresh_val () =
      (* Ids double as written values, unique across the whole run —
         what gives the checker its discriminating power. *)
      incr vals;
      !vals
    in
    let fresh_key () = lin_key (Rng.int crng lin_n_keys) in
    let draw_call () =
      let roll = Rng.int crng 100 in
      if roll < 40 then History.Get (fresh_key ())
      else if roll < 70 then History.Put (fresh_key (), fresh_val ())
      else if roll < 80 then History.Del (fresh_key ())
      else begin
        let a = Rng.int crng lin_n_keys in
        let b = (a + 1 + Rng.int crng (lin_n_keys - 1)) mod lin_n_keys in
        History.Txn [ (lin_key a, fresh_val ()); (lin_key b, fresh_val ()) ]
      end
    in
    let rec issue () =
      if Simtime.(Engine.now engine < horizon) then begin
        match List.filter (Platform.hive_alive platform) (Platform.members platform)
        with
        | [] -> ignore (Engine.schedule_after engine (Simtime.of_us 500) issue)
        | hives ->
          let from = List.nth hives (Rng.int crng (List.length hives)) in
          let call = draw_call () in
          let id = History.invoke recorder ~client:c ~now:(Engine.now engine) call in
          Platform.inject platform ~from:(Channels.Hive from) ~kind:k_lin
            (Lk_op { lk_id = id; lk_call = call });
          let moved = ref false in
          let next () =
            if not !moved then begin
              moved := true;
              ignore
                (Engine.schedule_after engine
                   (Simtime.of_us (lin_think_min + Rng.int crng lin_think_spread))
                   issue)
            end
          in
          History.on_complete recorder ~id next;
          ignore (Engine.schedule_after engine (Simtime.of_us lin_patience) next)
      end
    in
    ignore (Engine.schedule_at engine (Simtime.of_us (50 + (37 * c))) issue)
  done;
  recorder

let lin_monitor recorder last_report =
  {
    Monitor.m_name = "linearizability";
    m_phase = Monitor.Final;
    m_check =
      (fun _ ->
        let ops = History.ops recorder in
        let r = Lin.check ops in
        last_report := Some r;
        match r.Lin.r_verdict with
        | Lin.Linearizable -> None
        | Lin.Unknown _ ->
          (* Degraded, not failed: an exhausted budget is a coverage gap
             (surfaced via the [lin.unknown] gauge), never a verdict. *)
          None
        | Lin.Non_linearizable witness ->
          Some
            (Format.asprintf
               "@[<v>history of %d ops is not linearizable; minimal sub-history (%d ops):@,%a@]"
               (List.length ops) (List.length witness) History.pp_ops witness))
  }

(* The lin workload's coverage counters as [lin.*] gauges, present once
   its final check has run. *)
let lin_gauges recorder = function
  | None -> []
  | Some r ->
    [
      ("lin.histories_checked", r.Lin.r_components);
      ("lin.ops_recorded", History.n_invoked recorder);
    ]
    @ (match r.Lin.r_verdict with Lin.Unknown _ -> [ ("lin.unknown", 1) ] | _ -> [])

(* Runs [ops] and returns the outcome with a reader of the run's gauges:
   the platform's, the membership manager's and the lin checker's,
   merged and sorted by name. *)
let execute_with_gauges ?observe cfg ops =
  let spec = Script.spec cfg.r_profile in
  let engine = Engine.create ~seed:cfg.r_seed () in
  let durability =
    if spec.Script.sp_durability then
      (* A small threshold so compaction actually runs inside short checks. *)
      Some { Store.snapshot_threshold_bytes = 2048 }
    else None
  in
  let pcfg =
    { (Platform.default_config ~n_hives:cfg.r_n_hives) with
      Platform.durability; inject = cfg.r_inject }
  in
  let platform = Platform.create engine pcfg in
  (* Under Raft a failover legitimately recovers the quorum-committed
     prefix rather than the local WAL, which breaks the outbox workload's
     per-key journal = counter equality; raft-failover outbox recovery is
     covered by its own unit tests instead. *)
  let replicated = spec.Script.sp_raft && not cfg.r_outbox in
  Platform.register_app platform (kv_app ~replicated);
  if cfg.r_outbox then Platform.register_app platform (fwd_app ~replicated);
  let lin_rec = if cfg.r_lin then Some (install_lin cfg engine platform) else None in
  let lin_report = ref None in
  let raft =
    if replicated then
      Some (Raft_replication.install platform ~compact_every:8 ())
    else None
  in
  let detector =
    if spec.Script.sp_detector then
      Some (Failure_detector.install platform)
    else None
  in
  let membership =
    if spec.Script.sp_elastic then Some (Membership.create platform)
    else None
  in
  (match observe with Some f -> f engine platform | None -> ());
  Platform.start platform;
  let puts = Hashtbl.create 16 in
  let n_puts = ref 0 in
  let poisons = ref 0 in
  let ctx =
    {
      Monitor.cx_engine = engine;
      cx_platform = platform;
      cx_app = app_name;
      cx_dict = dict;
      cx_puts = puts;
      cx_raft = raft;
      cx_detector = detector;
      cx_membership = membership;
      cx_crashes = Script.has_crash ops;
      cx_fwd = (if cfg.r_outbox then Some (fwd_app_name, fwd_dict) else None);
      cx_poisons = poisons;
    }
  in
  let monitors =
    Monitor.defaults ()
    @
    match lin_rec with
    | Some recorder ->
      (* Last, so a structural finding (which implies the lin one) is
         reported in preference to its client-visible symptom. *)
      [ lin_monitor recorder lin_report ]
    | None -> []
  in
  let continuous =
    List.filter (fun m -> m.Monitor.m_phase = Monitor.Continuous) monitors
  in
  ignore
    (Engine.every engine (Simtime.of_ms 1) (fun () ->
         List.iter (fun m -> Monitor.check m ctx) continuous));
  (* Restarting a hive is also a monitoring point: each crashed bee must
     revive byte-identical to its durable snapshot+WAL state. *)
  let do_restart h =
    let crashed =
      List.filter
        (fun v -> (not v.Platform.view_alive) && v.Platform.view_hive = h)
        (Platform.live_bees platform)
    in
    (* fsck before reading the durable cut: a torn tail is truncated away
       first (it is not recoverable data), and a bee whose committed
       prefix fails verification is exempt from byte-identity — it revives
       from a replication peer or is quarantined, never from local bytes. *)
    let verdicts = Platform.fsck_crashed_bees platform h in
    let corrupt id =
      List.exists
        (function i, Store.Corrupt _ -> i = id | _ -> false)
        verdicts
    in
    let expected =
      List.filter_map
        (fun v ->
          if corrupt v.Platform.view_id then None
          else
            Some
              ( v.Platform.view_id,
                List.sort compare
                  (Platform.durable_bee_entries platform v.Platform.view_id) ))
        crashed
    in
    Platform.restart_hive platform h;
    List.iter
      (fun (id, exp) ->
        let got = List.sort compare (Platform.bee_state_entries platform id) in
        if got <> exp then
          raise
            (Monitor.Violation
               {
                 Monitor.v_monitor = "recovery-identity";
                 v_detail =
                   Printf.sprintf
                     "bee %d revived with %d entries, durable state held %d" id
                     (List.length got) (List.length exp);
                 v_at = Engine.now engine;
               }))
      expected
  in
  (* Disk damage lands on a key's current owner — resolved at apply time,
     like Migrate, so shrinking a script keeps each op's target stable. *)
  let damage_owner key f =
    match Platform.store platform with
    | None -> ()
    | Some s -> (
      match
        Platform.find_owner platform ~app:app_name (Cell.cell dict (key_name key))
      with
      | Some bee -> f s bee
      | None -> ())
  in
  let apply = function
    | Script.Put { key; from_hive; _ } ->
      if Platform.hive_alive platform from_hive then begin
        let key = key_name key in
        Hashtbl.replace puts key (1 + Option.value ~default:0 (Hashtbl.find_opt puts key));
        incr n_puts;
        (* With the outbox workload, puts enter through the forwarding
           stage so every counted put crosses the journal -> emit -> kv
           pipeline the exactly-once monitor audits. *)
        if cfg.r_outbox then
          Platform.inject platform ~from:(Channels.Hive from_hive) ~kind:k_fwd
            (Ck_fwd key)
        else
          Platform.inject platform ~from:(Channels.Hive from_hive) ~kind:k_put (Ck_put key)
      end
    | Script.Poison { key; from_hive; _ } ->
      if cfg.r_outbox && Platform.hive_alive platform from_hive then begin
        incr poisons;
        Platform.inject platform ~from:(Channels.Hive from_hive) ~kind:k_poison
          (Ck_poison (key_name key))
      end
    | Script.Read_all { from_hive; _ } ->
      if Platform.hive_alive platform from_hive then
        Platform.inject platform ~from:(Channels.Hive from_hive) ~kind:k_read Ck_read_all
    | Script.Migrate { key; to_hive; _ } ->
      (match Platform.find_owner platform ~app:app_name (Cell.cell dict (key_name key)) with
      | Some bee -> ignore (Platform.migrate_bee platform ~bee ~to_hive ~reason:"nemesis")
      | None -> ());
      (* With the lin workload on, the nemesis also migrates the lin
         bees — as a script op, so a migration-triggered violation
         shrinks down to the Migrate that opened the window. *)
      if cfg.r_lin then (
        match
          Platform.find_owner platform ~app:lin_app_name
            (Cell.cell lin_dict (lin_key (key mod lin_n_keys)))
        with
        | Some bee ->
          ignore (Platform.migrate_bee platform ~bee ~to_hive ~reason:"nemesis-lin")
        | None -> ())
    | Script.Fail { hive; _ } -> Platform.fail_hive platform hive
    | Script.Restart { hive; _ } ->
      if Platform.hive_crashed platform hive then do_restart hive
    | Script.Spike { factor; dur_us; _ } ->
      Channels.set_latency_factor (Platform.channels platform) factor;
      ignore
        (Engine.schedule_after engine (Simtime.of_us dur_us) (fun () ->
             Channels.set_latency_factor (Platform.channels platform) 1.0))
    | Script.Drop_links { loss; dur_us; _ } ->
      Channels.set_loss (Platform.channels platform) loss;
      ignore
        (Engine.schedule_after engine (Simtime.of_us dur_us) (fun () ->
             Channels.set_loss (Platform.channels platform) 0.0))
    | Script.Partition_pair { a; b; _ } ->
      (* Elastic scripts may aim at ids whose join never landed. *)
      if a <> b && a < Platform.n_hives platform && b < Platform.n_hives platform
      then Channels.partition (Platform.channels platform) ~a ~b
    | Script.Heal _ -> Channels.heal_all (Platform.channels platform)
    | Script.Spike_link { src; dst; factor; dur_us; _ } ->
      if src <> dst then begin
        Channels.set_link_latency_factor (Platform.channels platform) ~src ~dst factor;
        ignore
          (Engine.schedule_after engine (Simtime.of_us dur_us) (fun () ->
               Channels.set_link_latency_factor (Platform.channels platform) ~src ~dst
                 1.0))
      end
    | Script.Add_hive _ -> (
      match membership with
      | Some m when Membership.joins m < max_joins -> ignore (Membership.add_hive m)
      | Some _ | None -> ())
    | Script.Drain_hive { hive; decom; _ } -> (
      match membership with
      | Some m ->
        (* The drain refuses on its own when the hive is gone, already
           draining, or too few placeable hives would remain. *)
        ignore (Membership.drain m ~auto_decommission:decom hive)
      | None -> ())
    | Script.Decommission_hive { hive; _ } -> (
      match membership with
      | Some m when hive < Platform.n_hives platform ->
        ignore (Membership.decommission m hive)
      | Some _ | None -> ())
    | Script.Corrupt_record { key; _ } ->
      (* [key] doubles as the victim-record selector so the damage site
         is a pure function of the op. *)
      damage_owner key (fun s bee -> ignore (Store.corrupt_record s ~bee ~victim:key))
    | Script.Torn_tail { key; _ } ->
      damage_owner key (fun s bee -> ignore (Store.tear_tail s ~bee))
    | Script.Snapshot_rot { key; _ } ->
      damage_owner key (fun s bee -> ignore (Store.rot_snapshot s ~bee))
  in
  List.iter
    (fun op ->
      ignore
        (Engine.schedule_at engine (Simtime.of_us (Script.at_us op)) (fun () -> apply op)))
    ops;
  let outcome =
    match
      Engine.run_until engine (Simtime.of_us (cfg.r_ticks * 1000));
      (* Heal: the nemesis never leaves the fabric broken or a hive down
         forever. Mend every link, revive crashed processes, and let the
         system quiesce before judging the end state. Fenced (evicted but
         running) hives are deliberately NOT restarted here: once the
         fabric heals, their heartbeats must walk them back into
         membership — that rejoin path is part of what the final monitors
         judge. *)
      Channels.heal_all (Platform.channels platform);
      Channels.set_loss (Platform.channels platform) 0.0;
      for h = 0 to Platform.n_hives platform - 1 do
        if Platform.hive_crashed platform h then do_restart h
      done;
      Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 2.0));
      List.iter (fun m -> Monitor.check m ctx) monitors
    with
    | () ->
      Pass
        {
          s_events = Engine.events_executed engine;
          s_processed = Platform.total_processed platform;
          s_retransmits = Transport.retransmits (Platform.transport platform);
          s_puts = !n_puts;
          s_lin_ops =
            (match lin_rec with Some r -> History.n_invoked r | None -> 0);
          s_lin_checked =
            (match !lin_report with
            | Some r -> r.Lin.r_components
            | None -> 0);
        }
    | exception Monitor.Violation v -> Fail v
    | exception exn ->
      (* A crash is a finding too: report it as a violation so it shrinks
         and replays like any invariant failure. *)
      Fail
        {
          Monitor.v_monitor = "exception";
          v_detail = Printexc.to_string exn;
          v_at = Engine.now engine;
        }
  in
  let gauges () =
    Platform.gauges platform
    @ (match membership with Some m -> Membership.gauges m | None -> [])
    @ (match lin_rec with Some r -> lin_gauges r !lin_report | None -> [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (outcome, gauges)

let execute ?observe cfg ops = fst (execute_with_gauges ?observe cfg ops)

let run_seed cfg =
  let script =
    Nemesis.generate ~rng:(Rng.create cfg.r_seed) ~profile:cfg.r_profile
      ~n_hives:cfg.r_n_hives ~ticks:cfg.r_ticks
  in
  (script, execute cfg script)

(* Determinism digest: regenerates and executes [cfg]'s seed while
   recording the full emission trace (time, kind, size, parent kind,
   emitting bee), then folds in the store's canonical WAL image, every
   live bee's state entries, the platform gauges, the engine's event
   count and the verdict. The corpus pins of test/behaviour.digests hold
   it fixed for every test/seeds.corpus line. *)
let digest cfg =
  let trace = Buffer.create 8192 in
  let captured = ref None in
  let observe engine platform =
    captured := Some (engine, platform);
    Platform.on_emit platform (fun ~parent ~child ~emitter ->
        Buffer.add_string trace
          (Printf.sprintf "%d %s %d %s %s\n"
             (Simtime.to_us (Engine.now engine))
             child.Message.kind child.Message.size
             (match parent with Some p -> p.Message.kind | None -> "-")
             (match emitter with
             | Message.From_bee { bee; app; hive } -> Printf.sprintf "%d/%s/%d" bee app hive
             | Message.From_endpoint _ | Message.From_system -> "-")))
  in
  let script =
    Nemesis.generate ~rng:(Rng.create cfg.r_seed) ~profile:cfg.r_profile
      ~n_hives:cfg.r_n_hives ~ticks:cfg.r_ticks
  in
  let outcome, gauges = execute_with_gauges ~observe cfg script in
  let engine, platform = Option.get !captured in
  (match outcome with
  | Pass s ->
    Buffer.add_string trace
      (Printf.sprintf "PASS events=%d processed=%d puts=%d lin=%d/%d\n"
         s.s_events s.s_processed s.s_puts s.s_lin_ops s.s_lin_checked)
  | Fail v ->
    Buffer.add_string trace
      (Printf.sprintf "FAIL %s: %s\n" v.Monitor.v_monitor v.Monitor.v_detail));
  (match Platform.store platform with
  | Some s -> Buffer.add_string trace (Store.wal_image s)
  | None -> ());
  List.iter
    (fun v ->
      Buffer.add_string trace
        (Printf.sprintf "bee %d %s@%d alive=%b" v.Platform.view_id
           v.Platform.view_app v.Platform.view_hive v.Platform.view_alive);
      List.iter
        (fun (d, k, value) ->
          Buffer.add_string trace
            (Format.asprintf " %s/%s=%a" d k Value.pp value))
        (List.sort compare
           (Platform.bee_state_entries platform v.Platform.view_id));
      Buffer.add_char trace '\n')
    (Platform.live_bees platform);
  List.iter
    (fun (k, v) -> Buffer.add_string trace (Printf.sprintf "g %s=%d\n" k v))
    (gauges ());
  Buffer.add_string trace (Printf.sprintf "events=%d\n" (Engine.events_executed engine));
  (outcome, Digest.to_hex (Digest.string (Buffer.contents trace)))
