module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Channels = Beehive_net.Channels
module Transport = Beehive_net.Transport
module Store = Beehive_store.Store

let src = Logs.Src.create "beehive.platform" ~doc:"Beehive control platform"

module Log = (val Logs.src_log src : Logs.LOG)

type bug =
  | Forwarding_off
  | Dedup_off
  | Transport_dedup_off
  | Stale_read
  | Lost_outbox
  | Replay_dup
  | Checksums_off

let bugs =
  [
    ("forwarding", Forwarding_off);
    ("dedup-off", Dedup_off);
    ("stale-read", Stale_read);
    ("lost-outbox", Lost_outbox);
    ("replay-dup", Replay_dup);
    ("checksums-off", Checksums_off);
  ]

type config = {
  n_hives : int;
  hive_capacity : int;
  durability : Store.config option;
  inject : bug option;
}

let default_config ~n_hives =
  { n_hives; hive_capacity = max_int; durability = None; inject = None }

(* Background integrity scrub: cold snapshot+WAL bytes verified per 5 ms
   slice; detected-corrupt live bees are repaired in place, crashed ones
   at restart. *)
let scrub_budget_bytes = 64 * 1024

type migration = {
  mig_at : Simtime.t;
  mig_bee : int;
  mig_app : string;
  mig_src : int;
  mig_dst : int;
  mig_bytes : int;
  mig_reason : string;
}

type hive_event = Lifecycle.hive_event =
  | Crashed
  | Restarted
  | Added
  | Draining
  | Decommissioned

type bee_view = {
  view_id : int;
  view_app : string;
  view_hive : int;
  view_cells : Cell.Set.t;
  view_queue : int;
  view_is_local : bool;
  view_alive : bool;
}

(* The three stages of a message's life each have their module: routing
   ({!Router}), the handler and its commit ({!Dispatch}) and the hive
   transitions around them ({!Lifecycle}). The platform wires them
   together in [create] and answers the queries. *)
type t = {
  engine : Engine.t;
  cfg : config;
  chans : Channels.t;
  transport : Transport.t;
  reg : Registry.t;
  locks : Cell_locks.t;
  hives : Hives.t;
  bees : (int, Bee.t) Hashtbl.t;  (* every bee ever created, by its dense id *)
  endpoints : (Channels.endpoint, Message.t -> unit) Hashtbl.t;
  store : (Value.t, Outbox.entry) Store.t option;
      (* durability engine shadowing every non-local bee's dictionaries *)
  outbox : Outbox.t;
  cache : Route_plan.cache;
  router : Router.t;
  dispatch : Dispatch.t;
  life : Lifecycle.t;
  transfer : Bee.t -> Bee.hold -> landed:(src:int -> bytes:int -> unit) -> unit;
      (* {!Migration.transfer} on this platform's subsystems *)
  mutable apps : App.t list;  (* sorted by name *)
  mutable hive_sources : Message.source array;
      (* [From_endpoint (Hive h)] by hive, the source of every message
         injected from a hive; grown as hives join *)
  switch_sources : (int, Message.source) Hashtbl.t;
      (* [From_endpoint (Switch s)] by switch, built at its first inject *)
  mutable started : bool;
  mutable migration_log : migration list;  (* newest first *)
}

let engine t = t.engine
let channels t = t.chans
let transport t = t.transport
let registry t = t.reg
let n_hives t = Hives.count t.hives
let now t = Engine.now t.engine
let hive_alive t h = Hives.alive t.hives h
let hive_crashed t h = Hives.crashed t.hives h
let since_wipe t h = Hives.since_wipe t.hives t.engine h
let hive_draining t h = Hives.draining t.hives h
let hive_decommissioned t h = Hives.decommissioned t.hives h

let hive_state t h =
  if not (Hives.valid t.hives h) then invalid_arg "Platform.hive_state: bad hive";
  Hives.state t.hives h

let members t = Hives.members t.hives
let member_count t = List.length (members t)
let placeable t h = Hives.placeable t.hives h

let register_app t app =
  if t.started then invalid_arg "Platform.register_app: platform already started";
  if List.exists (fun a -> String.equal a.App.name app.App.name) t.apps then
    invalid_arg "Platform.register_app: duplicate app name";
  t.apps <- List.sort (fun a b -> String.compare a.App.name b.App.name) (app :: t.apps);
  Router.add_app t.router app

let register_endpoint t ep cb = Hashtbl.replace t.endpoints ep cb

(* One lossy one-way send from hive [src] to hive [dst] on the failable
   wire: [k] runs on arrival, unless the wire loses the bytes. Nothing
   retries, acks or sequences it. *)
let datagram t ~src ~dst ~bytes k =
  match
    Channels.transfer_result t.chans ~src:(Channels.hive_endpoint t.chans src)
      ~dst:(Channels.hive_endpoint t.chans dst) ~bytes ~now:(now t)
  with
  | `Lost -> ()
  | `Delivered lat -> ignore (Engine.schedule_after t.engine lat k)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The shared source of a message injected from hive [h]. *)
let hive_source t h =
  if h >= Array.length t.hive_sources then
    t.hive_sources <-
      Array.init (Hives.count t.hives) (fun h ->
          Message.From_endpoint (Channels.hive_endpoint t.chans h));
  t.hive_sources.(h)

let inject t ~from ?size ~kind payload =
  let src =
    match from with
    | Channels.Hive h when h >= 0 && h < Hives.count t.hives -> hive_source t h
    | Channels.Switch s -> (
      match Hashtbl.find t.switch_sources s with
      | src -> src
      | exception Not_found ->
        let src = Message.From_endpoint from in
        Hashtbl.add t.switch_sources s src;
        src)
    | Channels.Hive _ -> Message.From_endpoint from
  in
  let msg = Message.make ?size ~kind ~src ~sent_at:(now t) payload in
  Dispatch.observe t.dispatch ~parent:None msg;
  Router.route t.router ~src_ep:from msg

let emit_system t ~hive ~size ~kind payload =
  let msg = Message.make ~size ~kind ~src:Message.From_system ~sent_at:(now t) payload in
  Router.route t.router ~src_ep:(Channels.hive_endpoint t.chans hive) msg

(* Ticks originate on the lowest-numbered member hive that has not
   crashed (a crashed origin would drop them); with every member crashed
   there is no process left to run the timer. *)
let start t =
  if t.started then invalid_arg "Platform.start: already started";
  t.started <- true;
  List.iter
    (fun (app : App.t) ->
      List.iter
        (fun (tm : App.timer) ->
          ignore
            (Engine.every t.engine tm.App.period (fun () ->
                 match Hives.lowest_running t.hives with
                 | None -> ()
                 | Some hive -> (
                   (* A tick generator that raises skips this tick instead
                      of unwinding the engine. *)
                   match tm.App.tick_payload ~now:(now t) with
                   | payload ->
                     emit_system t ~hive ~size:tm.App.tick_size ~kind:tm.App.timer_kind
                       payload
                   | exception exn ->
                     Router.fault t.router;
                     Log.warn (fun m ->
                         m "timer %s tick generator raised %s" tm.App.timer_kind
                           (Printexc.to_string exn))))))
        app.App.timers)
    t.apps

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let view_of t (b : Bee.t) =
  let cells =
    match Registry.find_bee t.reg b.id with
    | Some info -> info.Registry.bee_cells
    | None -> Cell.Set.empty
  in
  {
    view_id = b.id;
    view_app = b.app.App.name;
    view_hive = b.hive;
    view_cells = cells;
    view_queue = Mailbox.length b.mailbox;
    view_is_local = b.is_local;
    view_alive = b.status = `Active;
  }

let bee_view t id = Option.map (view_of t) (Hashtbl.find_opt t.bees id)

let live_bee_hive t id =
  match Hashtbl.find t.bees id with
  | { Bee.status = `Active; hive; _ } -> Some hive
  | { Bee.status = `Crashed | `Dead; _ } | (exception Not_found) -> None

let live_bees t =
  List.map (view_of t) (Lifecycle.bees t.life (fun (b : Bee.t) -> b.status <> `Dead))

let bee_stats t id = Option.map (fun (b : Bee.t) -> b.stats) (Hashtbl.find_opt t.bees id)

let bee_state_entries t id =
  match Hashtbl.find_opt t.bees id with Some b -> State.snapshot b.state | None -> []

let store t = t.store

let durable_bee_entries t id =
  match t.store with Some s -> Store.recover s ~bee:id | None -> []

let flush_durability t =
  match t.store with Some s -> Store.flush s | None -> ()

let total_fsyncs t =
  match t.store with Some s -> Store.total_fsyncs s | None -> 0

let find_owner t ~app cell =
  match Registry.owners t.reg ~app (Cell.Set.singleton cell) with
  | [] -> None
  | b :: _ -> Some b

let read t ~app ~dict ~key =
  match find_owner t ~app (Cell.cell dict key) with
  | None -> None
  | Some id -> State.find (Hashtbl.find t.bees id).state ~dict ~key

(* Owners hold disjoint keys, each list in key order, so merging keeps
   key order. *)
let read_dict t ~app ~dict =
  List.fold_left
    (fun acc id ->
      List.merge
        (fun (a, _) (b, _) -> String.compare a b)
        acc
        (State.entries (Hashtbl.find t.bees id).state ~dict))
    []
    (Registry.owners_of_dict t.reg ~app ~dict)

(* Bee ids are dense and [t.bees] never drops one, so walking the ids
   visits every bee in ascending id order. *)
let iter_windows t ~hive f =
  for id = 0 to Hashtbl.length t.bees - 1 do
    let b = Hashtbl.find t.bees id in
    if b.hive = hive && b.status <> `Dead then
      f ~bee:id ~app:b.app.App.name (Stats.take_window b.stats)
  done

(* ------------------------------------------------------------------ *)
(* Placement control                                                   *)
(* ------------------------------------------------------------------ *)

(* The platform reads [hive_capacity] and hands it to {!Router}: route
   planning, migration admission and the drain evacuation all apply
   {!Route_plan}'s one placement rule with it. *)
let least_loaded_hive t ~exclude ~cells =
  Route_plan.least_loaded t.reg t.hives ~capacity:t.cfg.hive_capacity ~exclude ~cells

let landed t (b : Bee.t) ~dst reason ~src ~bytes =
  Route_plan.invalidate t.cache;
  let mig =
    {
      mig_at = now t;
      mig_bee = b.id;
      mig_app = b.app.App.name;
      mig_src = src;
      mig_dst = dst;
      mig_bytes = bytes;
      mig_reason = reason;
    }
  in
  t.migration_log <- mig :: t.migration_log;
  Log.debug (fun m -> m "migrated bee %d (%s) hive %d -> %d (%s)" b.id b.app.App.name src dst reason)

let migrate_bee t ~bee ~to_hive ~reason =
  match Hashtbl.find_opt t.bees bee with
  | None -> false
  | Some b ->
    let cells = Cell.Set.cardinal (Registry.bee t.reg bee).Registry.bee_cells in
    if
      (not (Bee.runnable b)) || b.is_local || b.app.App.pinned
      || to_hive = b.hive
      || not (Route_plan.has_room t.reg t.hives ~capacity:t.cfg.hive_capacity to_hive ~cells)
    then false
    else begin
      (* Admission reserves the destination's room; a busy bee's move
         starts once its handler completes, after the idle hooks already
         queued. *)
      let hold = Bee.Migrating { dst = to_hive; cells } in
      Bee.take t.hives b hold;
      let start () = t.transfer b hold ~landed:(landed t b ~dst:to_hive reason) in
      if b.busy then b.on_idle <- start :: b.on_idle else start ();
      true
    end

let migrations t = List.rev t.migration_log
let on_hive t f = Lifecycle.on_hive t.life f
let on_fsync t f = Dispatch.on_fsync t.dispatch f
let on_emit t f = Dispatch.on_emit t.dispatch f
let set_replicator t r = Dispatch.set_replicator t.dispatch r

(* ------------------------------------------------------------------ *)
(* Outbox / quarantine introspection                                   *)
(* ------------------------------------------------------------------ *)

let outbox_unacked_total t =
  match t.store with Some s -> Store.outbox_total s | None -> 0
let handler_faults t = Router.faults t.router
let total_quarantined t = Outbox.total_quarantined t.outbox
let quarantined_messages t ~bee = Outbox.quarantined_messages t.outbox ~bee

(* ------------------------------------------------------------------ *)
(* Hive lifecycle, carried out by {!Lifecycle}                         *)
(* ------------------------------------------------------------------ *)

let crash_hive t h = Lifecycle.crash_hive t.life h
let failover_hive t h = Lifecycle.failover_hive t.life h
let fail_hive t h = Lifecycle.fail_hive t.life h
let evict_hive t h = Lifecycle.evict_hive t.life h
let rejoin_hive t h = Lifecycle.rejoin_hive t.life h
let restart_hive t h = Lifecycle.restart_hive t.life h
let scrub_now t = Lifecycle.scrub_slice t.life ~budget_bytes:max_int
let storage_suspects t = match t.store with None -> [] | Some s -> Store.suspects s
let broken_chains t = Lifecycle.broken_chains t.life
let fsck_crashed_bees t h = Lifecycle.fsck_crashed_bees t.life h
let add_hive t = Lifecycle.add_hive t.life
let set_draining t h flag = Lifecycle.set_draining t.life h flag
let inbound_transfers t h = Hives.inbound t.hives h
let drain_complete t h = Lifecycle.drain_complete t.life h
let decommission_hive t h = Lifecycle.decommission_hive t.life h

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let total_processed t = Dispatch.processed t.dispatch
let total_lock_rpcs t = Cell_locks.rpcs t.locks
let total_bee_merges t = Router.merges t.router
let total_dropped t = Router.dropped t.router

let paused_bees t =
  Hashtbl.fold
    (fun _ (b : Bee.t) acc -> if b.status <> `Dead && Bee.held b then acc + 1 else acc)
    t.bees 0

(* Platform-wide gauges, read from the module that owns each counter. *)
let gauges t =
  (* Without a store the repair counters read 0 and the detection
     counters are absent. *)
  let integrity =
    match t.store with
    | Some s -> Store.integrity_counters s
    | None -> [ ("peer_repairs", 0); ("local_rewrites", 0); ("quarantined_bees", 0) ]
  in
  let states = List.init (n_hives t) (hive_state t) in
  let per_state =
    List.map
      (fun st ->
        ("membership." ^ Hives.label st, List.length (List.filter (( = ) st) states)))
      [ `Alive; `Draining; `Fenced; `Crashed; `Decommissioned ]
  in
  Transport.gauges t.transport
  @ [
    ("outbox.unacked", outbox_unacked_total t);
    ("outbox.dups_suppressed", Outbox.duplicates t.outbox);
    ("outbox.handler_faults", handler_faults t);
    ("quarantine.total", Outbox.total_quarantined t.outbox);
    ("quarantine.bees", Outbox.quarantined_bees t.outbox);
    ("membership.hives", member_count t);
  ]
  @ List.map (fun (k, v) -> ("integrity." ^ k, v)) integrity
  @ per_state
  @ Router.drop_counts t.router
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let message_latency_percentile t p = Dispatch.latency_percentile t.dispatch p

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Write sizes mirror the replication accounting: dict + key + value (a
   tombstone carries a 4-byte marker). *)
let size_of (dict, key, w) =
  String.length dict + String.length key + match w with Some v -> Value.size v | None -> 4

let create engine cfg =
  if cfg.n_hives <= 0 then invalid_arg "Platform.create: need at least one hive";
  let hives = Hives.create cfg.n_hives in
  let chans =
    Channels.create ~rng:(Rng.split (Engine.rng engine)) ~n_hives:cfg.n_hives
  in
  let transport =
    Transport.create ~engine
      ~rng:(Rng.split (Engine.rng engine))
      ~alive:(fun h -> not (Hives.crashed hives h))
      ~dedup:(match cfg.inject with Some (Dedup_off | Transport_dedup_off) -> false | _ -> true)
      chans
  in
  let locks = Cell_locks.create engine chans and reg = Registry.create () in
  let bees = Hashtbl.create 256 in
  let endpoints = Hashtbl.create 64 and outbox = Outbox.create () in
  let cache = Route_plan.create_cache () in
  (* The one knot. Routing creates bees, resumes the bees a merge
     releases and lands legs on lanes, all through dispatch; dispatch
     routes what handlers emit; the store reports its fsyncs to dispatch.
     Each closure below forces [dispatch], which none runs before
     [create] returns. *)
  let rec dispatch =
    lazy
      (let store =
         Option.map
           (fun config ->
             Store.create engine ~config ~size_of ~seq:Outbox.seq ~bytes:Outbox.bytes
               ~garble:Value.garble
               ~verify:(cfg.inject <> Some Checksums_off)
               ~on_fsync:(fun ~hive ~bytes ~records:_ ->
                 Dispatch.fsynced (Lazy.force dispatch) ~hive ~bytes)
               ~on_durable:(fun ~hive ~acks entries ->
                 Dispatch.durable (Lazy.force dispatch) ~hive ~acks entries)
               ())
           cfg.durability
       in
       let router =
         Router.create engine ~chans ~transport ~reg ~locks ~hives ~store ~outbox ~bees
           ~cache ~capacity:cfg.hive_capacity
           ~new_bee:(fun ~app ~hive ~is_local ->
             Dispatch.new_bee (Lazy.force dispatch) ~app ~hive ~is_local)
           ~resume:(fun b -> Dispatch.maybe_process (Lazy.force dispatch) b)
           ~arrivals:(Engine.lane engine (fun d -> Dispatch.arrive (Lazy.force dispatch) d))
           ~fanouts:(Engine.lane engine (fun ds -> Dispatch.arrive_all (Lazy.force dispatch) ds))
       in
       Dispatch.create engine ~chans ~reg ~hives ~router ~store ~outbox ~bees ~endpoints
         ~forwarding:(cfg.inject <> Some Forwarding_off) ~dedup:(cfg.inject <> Some Dedup_off)
         ~late:(fun ctx ep ?size ~kind payload ->
           Dispatch.late_emit (Lazy.force dispatch) ctx ep ?size ~kind payload)
         ~ack_batches:(Engine.lane engine (fun a -> Dispatch.acks_landed (Lazy.force dispatch) a))
         ~rechecks:(Engine.lane engine (fun e -> Dispatch.recheck (Lazy.force dispatch) e)))
  in
  let dispatch = Lazy.force dispatch in
  let router = Dispatch.router dispatch and store = Dispatch.store dispatch in
  let life =
    Lifecycle.create engine ~chans ~transport ~reg ~hives ~bees ~endpoints ~store
      ~cache ~dispatch ~lost_outbox:(cfg.inject = Some Lost_outbox)
      ~replay_dup:(cfg.inject = Some Replay_dup)
  in
  let transmit ~src_ep ~dst_hive ~bytes ~extra ~on_drop k =
    Router.transmit router ~src_ep ~dst_hive ~bytes ~extra ~on_drop (Router.thunks router) k
  in
  let resume = Dispatch.maybe_process dispatch in
  let transfer b hold ~landed =
    Migration.transfer engine ~reg ~locks ~hives ~store
      ~stale_reads:(cfg.inject = Some Stale_read) ~transmit ~resume ~landed b hold
  in
  (* Background scrub: one budgeted verification slice every 5 ms.
     Detected-corrupt live bees are repaired in place; bees on crashed
     hives keep their suspect verdict for restart_hive to consult. *)
  if Option.is_some store then
    ignore
      (Engine.every engine (Simtime.of_ms 5) (fun () ->
           Lifecycle.scrub_slice life ~budget_bytes:scrub_budget_bytes));
  {
    engine;
    cfg;
    chans;
    transport;
    reg;
    locks;
    hives;
    bees;
    endpoints;
    store;
    outbox;
    cache;
    router;
    dispatch;
    life;
    transfer;
    apps = [];
    hive_sources = [||];
    switch_sources = Hashtbl.create 16;
    started = false;
    migration_log = [];
  }
