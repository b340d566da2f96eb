(* Whole-system benchmark of the Beehive simulator, measured from the
   outside.

     perfbench.exe --workload fig4|pipeline --seed N --seconds S --trace 0|1

   Normally run through perfbench/run.py, which builds this program first.

   Workloads, both generated from --seed:

   - fig4: the paper's Figure 4 (c/f) experiment at reduced scale. The
     OpenFlow driver, the decoupled TE application and the
     instrumentation optimizer control a tree of switches with
     fixed-rate flows, 10% of them above the re-routing threshold. After
     bring-up every TE bee is forced onto hive 0 and the optimizer has to
     migrate them back. Durability is off: the store is bypassed.
   - pipeline: a durable journal-then-apply control pipeline. A forwarder
     journals each put and re-emits it, in the same transaction, to the
     key-value owner; the platform runs the WAL/group-commit store with
     the transactional outbox, so every message crosses the store, the
     fsync barrier, the outbox and the acks.

   A run repeats one episode (same seed, same inputs) until --seconds
   have passed; the first episode only warms the heap. An episode is a
   set-up (build the cluster and bring it to steady state) followed by a
   measured window. Every episode does the same work, so a slower one
   was disturbed by other load on the host: throughput and set-up time
   are read at the undisturbed quartile of the episodes (the upper
   quartile of throughput, the lower quartile of set-up time), which
   repeats across runs far better than the median on a shared machine.

   --trace 0 prints the end-to-end metrics: the exact simulated control
   latency, the words the host allocates per message handled, and set-up
   time. Set-up and window times are process CPU seconds: the simulator
   runs on one domain, so CPU time is its busy time, and unlike wall-clock
   time it does not grow while other work holds the host's cores. Host
   throughput (messages per CPU second) varies by up to a fifth between
   runs on a shared two-core host, so it is reported with the per-layer
   metrics rather than gated.

   --trace 1 alternates untraced and traced episodes and prints the
   per-layer metrics. A traced episode wraps the calls into each layer
   in spans: the engine run, platform ingress (the pipeline's injects),
   and every registered app's map functions and handler bodies. A span's
   self time is its duration minus its child spans, so the engine span's
   self time is the runtime: event queue, dispatch, registry and lock
   RPCs, store, transport, channel accounting and the instrumentation
   app. Counts come from the platform's counters and hooks, read at the
   window's edges in the untraced episodes. Spans read the wall clock,
   which is cheaper to read than CPU time. The spans of the last traced
   episode are written to .perfbench/. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Topology = Beehive_net.Topology
module Flow = Beehive_net.Flow
module Channels = Beehive_net.Channels
module Traffic_matrix = Beehive_net.Traffic_matrix
module Transport = Beehive_net.Transport
module Platform = Beehive_core.Platform
module App = Beehive_core.App
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Mapping = Beehive_core.Mapping
module Value = Beehive_core.Value
module Instrumentation = Beehive_core.Instrumentation
module Store = Beehive_store.Store
module Switch_agent = Beehive_openflow.Switch_agent
module Driver = Beehive_openflow.Driver
module Wire = Beehive_openflow.Wire
module Te_decoupled = Beehive_apps.Te_decoupled
module Te_common = Beehive_apps.Te_common

let clock = Unix.gettimeofday

(* Process CPU seconds, for the end-to-end times. *)
let cpu = Sys.time

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let layer_names = [| "runtime"; "ingress"; "map"; "handler" |]
let l_runtime = 0
let l_ingress = 1
let l_map = 2
let l_handler = 3

type frame = { f_id : int; f_start : float; mutable f_children : float }

type tracer = {
  mutable enabled : bool;
  mutable origin : float;
  self_s : float array;  (** per layer *)
  mutable stack : frame list;
  mutable next_id : int;
  log : Buffer.t;  (** one JSON line per span, the first [span_log_cap] *)
  mutable logged : int;
}

let span_log_cap = 50_000

let tracer =
  {
    enabled = false;
    origin = 0.0;
    self_s = Array.make (Array.length layer_names) 0.0;
    stack = [];
    next_id = 0;
    log = Buffer.create (1 lsl 16);
    logged = 0;
  }

let start_tracing () =
  Array.fill tracer.self_s 0 (Array.length tracer.self_s) 0.0;
  tracer.stack <- [];
  tracer.next_id <- 0;
  Buffer.clear tracer.log;
  tracer.logged <- 0;
  tracer.origin <- clock ();
  tracer.enabled <- true

(* Runs [f] inside a span of [layer]. [msg] ties the span to the message
   it serves, so the spans of one message share an identifier. *)
let span ?(msg = -1) layer f =
  if not tracer.enabled then f ()
  else begin
    let id = tracer.next_id in
    tracer.next_id <- id + 1;
    let parent = match tracer.stack with p :: _ -> p.f_id | [] -> -1 in
    let fr = { f_id = id; f_start = clock (); f_children = 0.0 } in
    tracer.stack <- fr :: tracer.stack;
    let close () =
      let stop = clock () in
      let dur = stop -. fr.f_start in
      (match tracer.stack with
      | _ :: (p :: _ as rest) ->
        p.f_children <- p.f_children +. dur;
        tracer.stack <- rest
      | _ -> tracer.stack <- []);
      tracer.self_s.(layer) <- tracer.self_s.(layer) +. dur -. fr.f_children;
      if tracer.logged < span_log_cap then begin
        tracer.logged <- tracer.logged + 1;
        Printf.bprintf tracer.log
          "{\"id\":%d,\"parent\":%d,\"layer\":\"%s\",\"msg\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
          id parent layer_names.(layer) msg (fr.f_start -. tracer.origin)
          (stop -. tracer.origin)
      end
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* The same app with every map function and handler body in a span. *)
let traced_app (a : App.t) =
  let wrap (h : App.handler) =
    {
      h with
      App.map = (fun m -> span ~msg:m.Message.msg_id l_map (fun () -> h.App.map m));
      rcv = (fun ctx m -> span ~msg:m.Message.msg_id l_handler (fun () -> h.App.rcv ctx m));
    }
  in
  { a with App.handlers = List.map wrap a.App.handlers }

(* ------------------------------------------------------------------ *)
(* Measurements                                                        *)
(* ------------------------------------------------------------------ *)

(* Exact latency samples, in simulated microseconds. *)
module Samples = struct
  type t = { mutable data : int array; mutable n : int }

  let create () = { data = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let d = Array.make (2 * t.n) 0 in
      Array.blit t.data 0 d 0 t.n;
      t.data <- d
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1

  let sum t =
    let s = ref 0 in
    for i = 0 to t.n - 1 do
      s := !s + t.data.(i)
    done;
    !s

  (* Nearest-rank percentile; 0 without samples. *)
  let percentile t p =
    if t.n = 0 then 0
    else begin
      let a = Array.sub t.data 0 t.n in
      Array.sort Int.compare a;
      let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) - 1 in
      a.(max 0 (min (t.n - 1) rank))
    end
end

(* Platform counters at one edge of the measured window. *)
type mark = {
  m_processed : int;
  m_events : int;
  m_lock_rpcs : int;
  m_transport : int;
  m_wal_bytes : int;
  m_fsyncs : int;
  m_migrations : int;
  m_minor : float;
  m_major : float;
}

let mark engine platform =
  let gc = Gc.quick_stat () in
  {
    m_processed = Platform.total_processed platform;
    m_events = Engine.events_executed engine;
    m_lock_rpcs = Platform.total_lock_rpcs platform;
    m_transport = Transport.sent (Platform.transport platform);
    m_wal_bytes =
      (match Platform.store platform with
      | Some s -> Store.total_wal_bytes_written s
      | None -> 0);
    m_fsyncs = Platform.total_fsyncs platform;
    m_migrations = List.length (Platform.migrations platform);
    m_minor = gc.Gc.minor_words;
    m_major = gc.Gc.major_words;
  }

(* Per-layer counts over the window, as (name, unit, value). Inter-hive
   bytes need the channel accounting reset at the window's start. *)
let window_counts platform ~emits a b =
  let msgs = float_of_int (max 1 (b.m_processed - a.m_processed)) in
  let per_msg x = float_of_int x /. msgs in
  [
    ("msgs_per_window", "count", float_of_int (b.m_processed - a.m_processed));
    ("engine_events_per_msg", "count", per_msg (b.m_events - a.m_events));
    ("emits_per_msg", "count", per_msg emits);
    ("lock_rpcs_per_msg", "count", per_msg (b.m_lock_rpcs - a.m_lock_rpcs));
    ( "interhive_bytes_per_msg",
      "B",
      Traffic_matrix.off_diagonal_bytes (Channels.matrix (Platform.channels platform)) /. msgs );
    ("transport_sends_per_msg", "count", per_msg (b.m_transport - a.m_transport));
    ("wal_bytes_per_msg", "B", per_msg (b.m_wal_bytes - a.m_wal_bytes));
    ("fsyncs", "count", float_of_int (b.m_fsyncs - a.m_fsyncs));
    ("migrations", "count", float_of_int (b.m_migrations - a.m_migrations));
    ("minor_words_per_msg", "words", (b.m_minor -. a.m_minor) /. msgs);
    ("major_words_per_msg", "words", (b.m_major -. a.m_major) /. msgs);
  ]

type episode = {
  setup_s : float;
  window_s : float;
  processed : int;  (** messages handled in the window *)
  attempted : int;
  failed : int;
  problems : string list;  (** output checks that failed *)
  latency : Samples.t;  (** exact control latencies, simulated us *)
  counts : (string * string * float) list;
  self_s : float array;  (** per-layer self time; zeros when untraced *)
}

let checks l = List.filter_map (fun (ok, what) -> if ok then None else Some what) l

(* Runs the window's engine work inside the root span, with tracing on
   for traced episodes only. *)
let measured ~traced f =
  if traced then start_tracing ();
  let w0 = cpu () in
  span l_runtime f;
  let window_s = cpu () -. w0 in
  tracer.enabled <- false;
  (window_s, if traced then Array.copy tracer.self_s else Array.map (fun _ -> 0.0) layer_names)

(* ------------------------------------------------------------------ *)
(* Workload fig4                                                       *)
(* ------------------------------------------------------------------ *)

let fig4_hives = 16
let fig4_switches = 160
let fig4_flows_per_switch = 40
let fig4_delta = 100_000.0
let fig4_warmup = Simtime.of_sec 3.0
let fig4_window = Simtime.of_sec 10.0

(* Exact control latency of the TE loop: simulated time from a switch's
   flow-stats reply entering the platform to the FlowMod the driver sends
   back to re-route a hot flow it revealed. The causal chain is
   flow-stats reply -> stat reply (driver) -> traffic update (Collect) ->
   app FlowMod (Route) -> wire FlowMod (driver); each link inherits its
   root's entry time as it is emitted. *)
let te_latency_probe platform samples =
  let root_at : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  Platform.on_emit platform (fun ~parent ~child ~emitter:_ ->
      let kind = child.Message.kind in
      match parent with
      | None ->
        if String.equal kind Wire.k_stat_reply then
          Hashtbl.replace root_at child.Message.msg_id (Simtime.to_us child.Message.sent_at)
      | Some p -> (
        match Hashtbl.find_opt root_at p.Message.msg_id with
        | None -> ()
        | Some root ->
          if String.equal kind Wire.k_flow_mod then
            Samples.add samples (Simtime.to_us child.Message.sent_at - root)
          else if
            String.equal kind Wire.k_app_stat_reply
            || String.equal kind Te_common.k_traffic_update
            || String.equal kind Wire.k_app_flow_mod
          then Hashtbl.replace root_at child.Message.msg_id root))

(* The paper's optimization experiment starts from every TE bee on one
   hive. *)
let pin_te_bees_to_hive0 platform =
  List.iter
    (fun (v : Platform.bee_view) ->
      if
        String.equal v.Platform.view_app Te_decoupled.app_name
        && (not v.Platform.view_is_local)
        && v.Platform.view_hive <> 0
      then
        ignore
          (Platform.migrate_bee platform ~bee:v.Platform.view_id ~to_hive:0
             ~reason:"adversarial initial placement"))
    (Platform.live_bees platform)

let fig4_episode ~seed ~traced ~count_emits =
  let t0 = cpu () in
  let engine = Engine.create ~seed () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:fig4_hives) in
  let register a = Platform.register_app platform (if traced then traced_app a else a) in
  let topo = Topology.tree ~arity:4 ~n_switches:fig4_switches in
  let per_hive = (fig4_switches + fig4_hives - 1) / fig4_hives in
  for sw = 0 to fig4_switches - 1 do
    Channels.assign_switch (Platform.channels platform) ~switch:sw
      ~hive:(min (fig4_hives - 1) (sw / per_hive))
  done;
  let flows =
    Flow.generate (Rng.split (Engine.rng engine)) topo ~per_switch:fig4_flows_per_switch
      ~hot_fraction:0.1 ~base_rate:50_000.0 ~hot_rate:250_000.0 ~start_spread:6.0 ()
  in
  register (Driver.app ());
  register (Te_decoupled.app ~delta:fig4_delta ());
  let instr = Instrumentation.install platform Instrumentation.default_config in
  let latency = Samples.create () in
  te_latency_probe platform latency;
  let emits = ref 0 in
  if count_emits then Platform.on_emit platform (fun ~parent:_ ~child:_ ~emitter:_ -> incr emits);
  Platform.start platform;
  let cluster = Switch_agent.create_cluster platform topo in
  let by_switch = Array.make fig4_switches [] in
  for i = Array.length flows - 1 downto 0 do
    let f = flows.(i) in
    by_switch.(f.Flow.src_switch) <- f :: by_switch.(f.Flow.src_switch)
  done;
  Array.iteri
    (fun sw fs -> ignore (Switch_agent.add cluster ~sw ~flows:(Array.of_list fs) ()))
    by_switch;
  Switch_agent.connect_all cluster ~stagger:(Simtime.of_ms 1) ();
  (* Two LLDP waves confirm every link in both directions. *)
  List.iter
    (fun at ->
      ignore
        (Engine.schedule_at engine (Simtime.of_sec at) (fun () ->
             Switch_agent.send_all_lldp cluster)))
    [ 1.0; 2.0 ];
  Engine.run_until engine fig4_warmup;
  let setup_s = cpu () -. t0 in
  Gc.full_major ();
  Channels.reset_accounting (Platform.channels platform);
  let emits0 = !emits in
  let m0 = mark engine platform in
  let window_s, self_s =
    measured ~traced (fun () ->
        pin_te_bees_to_hive0 platform;
        Engine.run_until engine (Simtime.add fig4_warmup fig4_window))
  in
  let m1 = mark engine platform in
  let n_hot =
    Array.fold_left
      (fun n f -> if Flow.is_hot ~threshold:fig4_delta f then n + 1 else n)
      0 flows
  in
  let rerouted = Te_decoupled.rerouted_count platform in
  let dropped = Platform.total_dropped platform in
  let faults = Platform.handler_faults platform + Platform.total_quarantined platform in
  {
    setup_s;
    window_s;
    processed = m1.m_processed - m0.m_processed;
    attempted = m1.m_processed - m0.m_processed;
    failed = dropped + faults + abs (n_hot - rerouted);
    problems =
      checks
        [
          (rerouted = n_hot, Printf.sprintf "fig4: %d of %d hot flows re-routed" rerouted n_hot);
          ( latency.Samples.n = rerouted,
            Printf.sprintf "fig4: %d FlowMods traced to a switch report for %d re-routes"
              latency.Samples.n rerouted );
          (dropped = 0, Printf.sprintf "fig4: %d messages dropped" dropped);
          (faults = 0, Printf.sprintf "fig4: %d handler faults or quarantined messages" faults);
          ( Instrumentation.performed_migrations instr > 0,
            "fig4: the optimizer migrated no bee back" );
        ];
    latency;
    counts = window_counts platform ~emits:(!emits - emits0) m0 m1;
    self_s;
  }

(* ------------------------------------------------------------------ *)
(* Workload pipeline                                                   *)
(* ------------------------------------------------------------------ *)

type Message.payload += Put of { p_key : int; p_size : int; p_at : int }

let pipe_hives = 6
let pipe_keys = 256
let pipe_period_ms = 5
let pipe_batch = 48  (* puts per period: 9,600 puts per simulated second *)
let pipe_ticks = 200  (* one simulated second of offered load *)
let pipe_drain = Simtime.of_ms 100
let key_names = Array.init pipe_keys (Printf.sprintf "k%d")

type put = { key : int; size : int; origin : int }

(* The offered load: which key, how many value bytes and which ingress
   hive, for every put of the window. *)
let pipeline_inputs seed =
  let rng = Random.State.make [| seed |] in
  Array.init (pipe_ticks * pipe_batch) (fun _ ->
      let key = Random.State.int rng pipe_keys in
      let size = 32 + Random.State.int rng 480 in
      { key; size; origin = Random.State.int rng pipe_hives })

let count_of = function
  | Some (Value.V_int n) | Some (Value.V_pair (Value.V_int n, _)) -> n
  | _ -> 0

let key_cell dict (m : Message.t) =
  match m.Message.payload with
  | Put { p_key; _ } -> Mapping.with_key dict key_names.(p_key)
  | _ -> Mapping.Drop

let fwd_app () =
  App.create ~name:"perfbench.fwd" ~dicts:[ "journal" ]
    [
      App.handler ~kind:"perfbench.put" ~map:(key_cell "journal") (fun ctx m ->
          match m.Message.payload with
          | Put { p_key; _ } ->
            Context.update ctx ~dict:"journal" ~key:key_names.(p_key) (fun v ->
                Some (Value.V_int (count_of v + 1)));
            Context.emit ctx ~size:m.Message.size ~kind:"perfbench.apply" m.Message.payload
          | _ -> ());
    ]

(* Applies a put and records its exact latency: simulated time from the
   put entering the platform to its apply handler running. *)
let kv_app latency =
  App.create ~name:"perfbench.kv" ~dicts:[ "kv" ]
    [
      App.handler ~kind:"perfbench.apply" ~map:(key_cell "kv") (fun ctx m ->
          match m.Message.payload with
          | Put { p_key; p_size; p_at } ->
            Context.update ctx ~dict:"kv" ~key:key_names.(p_key) (fun v ->
                Some
                  (Value.V_pair
                     (Value.V_int (count_of v + 1), Value.V_string (String.make p_size 'v'))));
            if p_at >= 0 then Samples.add latency (Simtime.to_us (Context.now ctx) - p_at)
          | _ -> ());
    ]

(* Per-key counters of one dictionary, read back from the bees' state. *)
let counts_by_key platform ~app ~dict =
  let counts = Array.make pipe_keys 0 in
  List.iter
    (fun (v : Platform.bee_view) ->
      if String.equal v.Platform.view_app app then
        List.iter
          (fun (d, key, value) ->
            if String.equal d dict then begin
              let k = int_of_string (String.sub key 1 (String.length key - 1)) in
              counts.(k) <- counts.(k) + count_of (Some value)
            end)
          (Platform.bee_state_entries platform v.Platform.view_id))
    (Platform.live_bees platform);
  counts

let pipeline_episode ~seed inputs ~traced ~count_emits =
  let t0 = cpu () in
  let engine = Engine.create ~seed () in
  let platform =
    Platform.create engine
      {
        (Platform.default_config ~n_hives:pipe_hives) with
        Platform.durability = Some Store.default_config;
      }
  in
  let latency = Samples.create () in
  let register a = Platform.register_app platform (if traced then traced_app a else a) in
  register (fwd_app ());
  register (kv_app latency);
  let emits = ref 0 in
  if count_emits then Platform.on_emit platform (fun ~parent:_ ~child:_ ~emitter:_ -> incr emits);
  Platform.start platform;
  let inject ~origin ~key ~size ~at =
    span l_ingress (fun () ->
        Platform.inject platform ~from:(Channels.Hive origin) ~size:(64 + size)
          ~kind:"perfbench.put"
          (Put { p_key = key; p_size = size; p_at = at }))
  in
  (* Bring-up: one put per key creates every forwarder and key-value bee. *)
  for k = 0 to pipe_keys - 1 do
    inject ~origin:(k mod pipe_hives) ~key:k ~size:64 ~at:(-1)
  done;
  Engine.run_until engine (Simtime.of_ms 20);
  let setup_s = cpu () -. t0 in
  Gc.full_major ();
  Channels.reset_accounting (Platform.channels platform);
  let emits0 = !emits in
  let m0 = mark engine platform in
  let tick = ref 0 in
  let feeder =
    Engine.every engine (Simtime.of_ms pipe_period_ms) (fun () ->
        if !tick < pipe_ticks then begin
          let at = Simtime.to_us (Engine.now engine) in
          for i = !tick * pipe_batch to ((!tick + 1) * pipe_batch) - 1 do
            let p = inputs.(i) in
            inject ~origin:p.origin ~key:p.key ~size:p.size ~at
          done;
          incr tick
        end)
  in
  let horizon =
    Simtime.add (Engine.now engine)
      (Simtime.add (Simtime.of_ms ((pipe_ticks + 1) * pipe_period_ms)) pipe_drain)
  in
  let window_s, self_s = measured ~traced (fun () -> Engine.run_until engine horizon) in
  ignore (Engine.cancel engine feeder);
  let m1 = mark engine platform in
  (* Quiesce outside the window: make the last batches durable and let the
     acks retire every outbox entry before reading the state back. *)
  Platform.flush_durability platform;
  Engine.run_until engine (Simtime.add horizon (Simtime.of_ms 50));
  let expected = Array.make pipe_keys 1 in
  Array.iter (fun p -> expected.(p.key) <- expected.(p.key) + 1) inputs;
  let journal = counts_by_key platform ~app:"perfbench.fwd" ~dict:"journal" in
  let applied = counts_by_key platform ~app:"perfbench.kv" ~dict:"kv" in
  let off = ref 0 in
  Array.iteri (fun k e -> off := !off + abs (journal.(k) - e) + abs (applied.(k) - e)) expected;
  let dropped = Platform.total_dropped platform in
  let faults = Platform.handler_faults platform + Platform.total_quarantined platform in
  let unacked = Platform.outbox_unacked_total platform in
  let n_puts = Array.length inputs in
  {
    setup_s;
    window_s;
    processed = m1.m_processed - m0.m_processed;
    attempted = n_puts + pipe_keys;
    failed = !off + dropped + faults;
    problems =
      checks
        [
          (!off = 0, Printf.sprintf "pipeline: journal/apply counts off by %d in total" !off);
          ( latency.Samples.n = n_puts,
            Printf.sprintf "pipeline: %d of %d puts applied" latency.Samples.n n_puts );
          (dropped = 0, Printf.sprintf "pipeline: %d messages dropped" dropped);
          (faults = 0, Printf.sprintf "pipeline: %d handler faults or quarantined" faults);
          (unacked = 0, Printf.sprintf "pipeline: %d outbox entries never acked" unacked);
        ];
    latency;
    counts = window_counts platform ~emits:(!emits - emits0) m0 m1;
    self_s;
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let min_episodes = 3

(* Linear-interpolated quantile, [q] in [0, 1]; 0 for no values. *)
let quantile q l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((x -. float_of_int i) *. (a.(j) -. a.(i)))
  end

let median = quantile 0.5

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i (name, unit_, value) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number value) unit_)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let write_spans ~workload ~seed =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed) in
  let oc = open_out path in
  Buffer.output_buffer oc tracer.log;
  close_out oc;
  path

let run ~workload ~seed ~seconds ~trace =
  let episode =
    match workload with
    | "fig4" -> fig4_episode ~seed
    | "pipeline" -> pipeline_episode ~seed (pipeline_inputs seed)
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  let deadline = clock () +. float_of_int seconds in
  let plain = ref [] and traced = ref [] in
  let enough () =
    List.length !plain >= min_episodes && ((not trace) || List.length !traced >= min_episodes)
  in
  let i = ref 0 in
  while clock () < deadline || not (enough ()) do
    let tr = trace && !i mod 2 = 1 in
    Gc.full_major ();
    let e = episode ~traced:tr ~count_emits:trace in
    if !i > 0 then if tr then traced := e :: !traced else plain := e :: !plain;
    incr i
  done;
  let all = !plain @ !traced in
  let first = List.hd all in
  let same e =
    e.processed = first.processed
    && e.latency.Samples.n = first.latency.Samples.n
    && Samples.sum e.latency = Samples.sum first.latency
  in
  let problems =
    List.sort_uniq String.compare
      ((if List.for_all same all then [] else [ "episodes of one seed diverged" ])
      @ List.concat_map (fun e -> e.problems) all)
  in
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) problems;
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 all in
  let lat = first.latency in
  let lat_ms p = float_of_int (Samples.percentile lat p) /. 1000.0 in
  let count_median name eps =
    median
      (List.map
         (fun e ->
           let _, _, v = List.find (fun (n, _, _) -> String.equal n name) e.counts in
           v)
         eps)
  in
  let metrics =
    if not trace then
      [
        ( "control_latency_ms",
          "ms",
          float_of_int (Samples.sum lat) /. float_of_int (max 1 lat.Samples.n) /. 1000.0 );
        ("alloc_words_per_msg", "words", count_median "minor_words_per_msg" !plain);
        ("setup_s", "s", quantile 0.25 (List.map (fun e -> e.setup_s) !plain));
      ]
    else begin
      let t = !traced and p = !plain in
      let total e = Array.fold_left ( +. ) 0.0 e.self_s in
      let layer l =
        [
          ( layer_names.(l) ^ "_self_us_per_msg",
            "us",
            median
              (List.map (fun e -> e.self_s.(l) *. 1e6 /. float_of_int (max 1 e.processed)) t) );
          ( layer_names.(l) ^ "_share",
            "%",
            median (List.map (fun e -> 100.0 *. e.self_s.(l) /. Float.max 1e-9 (total e)) t) );
        ]
      in
      let window_median l = median (List.map (fun e -> e.window_s) l) in
      let msgs_per_cpu_s =
        quantile 0.75 (List.map (fun e -> float_of_int e.processed /. e.window_s) p)
      in
      let overhead = 100.0 *. ((window_median t /. window_median p) -. 1.0) in
      let counts =
        List.map (fun (name, unit_, _) -> (name, unit_, count_median name p)) first.counts
      in
      let spans = write_spans ~workload ~seed in
      prerr_endline ("spans of the last traced episode: " ^ spans);
      List.concat_map layer [ l_runtime; l_ingress; l_map; l_handler ]
      @ [ ("trace_overhead", "%", overhead); ("msgs_per_cpu_s", "1/s", msgs_per_cpu_s) ]
      @ counts
      @ [
          ("control_latency_p50_ms", "ms", lat_ms 0.5);
          ("control_latency_p99_ms", "ms", lat_ms 0.99);
        ]
    end
  in
  Printf.eprintf "%s seed %d: %d untraced and %d traced episodes after one warm-up\n%!" workload
    seed (List.length !plain) (List.length !traced);
  print_result ~correct:(problems = []) ~attempted:(sum (fun e -> e.attempted))
    ~failed:(sum (fun e -> e.failed)) metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage = "perfbench.exe --workload fig4|pipeline --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W fig4 or pipeline");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
