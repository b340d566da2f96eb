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

type drop_reason =
  | Dead_target
  | Dead_origin
  | Missing_endpoint
  | Retransmit_exhausted

(* Drop counts, one slot per reason, surfaced as the [dropped.*] gauges. *)
let drop_gauges =
  [|
    "dropped.dead_target";
    "dropped.dead_origin";
    "dropped.missing_endpoint";
    "dropped.retransmit_exhausted";
  |]

let drop_slot = function
  | Dead_target -> 0
  | Dead_origin -> 1
  | Missing_endpoint -> 2
  | Retransmit_exhausted -> 3

(* The bee and delivery records, shared with {!Migration} and {!Recovery}. *)
open Bee

type bee = Bee.t

let delivery ~to_ msg handler allowed outbox : Bee.delivery =
  {
    d_to = to_;
    d_msg = msg;
    d_handler = handler;
    d_allowed = allowed;
    d_outbox = outbox;
    d_attempts = 0;
  }

type Message.payload += Idle

(* What an idle bee's [handling] and its mailbox's empty slots hold. *)
let idle : Bee.delivery =
  let msg =
    { Message.msg_id = 0; kind = ""; payload = Idle; size = 0; src = Message.From_system;
      sent_at = Simtime.zero }
  in
  let handler = App.handler ~kind:"" ~map:(fun _ -> Mapping.Drop) (fun _ _ -> ()) in
  delivery ~to_:(-1) msg handler Cell.Set.empty None

type migration = {
  mig_at : Simtime.t;
  mig_bee : int;
  mig_app : string;
  mig_src : int;
  mig_dst : int;
  mig_bytes : int;
  mig_reason : string;
}

type hive_event =
  | Crashed
  | Restarted
  | Added
  | Draining
  | Decommissioned

type commit_info = {
  ci_bee : int;
  ci_hive : int;
  ci_writes : (string * string * Value.t option) list;
  ci_emits : (int * Message.t) list;
      (* outbox entries committed by this transaction, (seq, message) —
         replicated so a failover can re-seed the new primary's outbox *)
  ci_inbox : (int * int) list;  (* inbox dedup marks consumed, (sender, seq) *)
}

type replicator = {
  commit : commit_info -> unit;
  acked : bee:int -> seq:int -> unit;
  recover : bee:int -> Recovery.replica option;
}

type bee_view = {
  view_id : int;
  view_app : string;
  view_hive : int;
  view_cells : Cell.Set.t;
  view_queue : int;
  view_is_local : bool;
  view_alive : bool;
}

type t = {
  engine : Engine.t;
  cfg : config;
  chans : Channels.t;
  transport : Transport.t;
  reg : Registry.t;
  locks : Cell_locks.t;
  mutable apps : App.t list;  (* sorted by name *)
  subscribers : (string, (App.t * App.handler) list) Hashtbl.t;
  bees : (int, bee) Hashtbl.t;
  local_bees : (string * int, int) Hashtbl.t;
  whole_dicts : (string, Cell.Set.t) Hashtbl.t;  (* app -> a local bee's cells *)
  mutable next_bee : int;
  mutable version : int;
  lookup_cache : Route_plan.cache;
  hives : Hives.t;
  endpoints : (Channels.endpoint, Message.t -> unit) Hashtbl.t;
  mutable store : (Value.t, Outbox.entry) Store.t option;
      (* durability engine shadowing every non-local bee's dictionaries *)
  mutable migration_log : migration list;  (* newest first *)
  mutable replicator : replicator option;
  mutable hive_hooks : (int -> hive_event -> unit) list;  (* newest first *)
  mutable fsync_hooks : (int -> unit) list;
      (* run after each per-hive group commit becomes durable *)
  mutable emit_hooks :
    (parent:Message.t option -> child:Message.t -> emitter:Message.source -> unit) list;
      (* emitter = the child's own [src] *)
  mutable started : bool;
  mutable n_processed : int;
  mutable n_merges : int;
  latency : Stats.latency;  (* every handled message's, merged-away bees' too *)
  drops : int array;  (* indexed by [drop_slot] *)
  outbox : Outbox.t;
  mutable ack_batches : (int * int * int) list array;
      (* indexed by hive id: the handed-over acks one [send_acks] sends
         to that hive, newest first; all empty between calls *)
  mutable n_handler_faults : int;
      (* exceptions contained at the dispatch boundary: map/cost/timer/
         endpoint callbacks that raised *)
  clock : unit -> Simtime.t;  (* every handler context's [now] *)
  on_exhausted : unit -> unit;  (* [transmit]'s [on_drop] when the caller gave none *)
  thunks : (unit -> unit) Engine.lane;  (* runs each value: what lands as a closure *)
  (* What lands on the three lanes below needs no closure; [create]
     sets them, as their callbacks take the platform. *)
  mutable arrivals : Bee.delivery Engine.lane;  (* a Cells or Local leg *)
  mutable fanouts : Bee.delivery list Engine.lane;  (* a Foreach copy: its hive's legs *)
  mutable endpoint_sends : (Channels.endpoint * Message.t) Engine.lane;  (* a bee's send *)
  mutable late : Context.late;
      (* emits and sends made after a handler returned; set by [create] *)
}

let engine t = t.engine
let channels t = t.chans
let transport t = t.transport
let registry t = t.reg
let config t = t.cfg
let n_hives t = Hives.count t.hives
let now t = Engine.now t.engine
let hive_alive t h = Hives.alive t.hives h
let hive_crashed t h = Hives.crashed t.hives h

(* Whether the running event was scheduled after hive [h] last lost its
   memory: the one test of what a crash erases (DESIGN.md §12.4). *)
let since_wipe t h = Engine.seq (Engine.running t.engine) >= Hives.wipe_mark t.hives h

let hive_draining t h = Hives.draining t.hives h
let hive_decommissioned t h = Hives.decommissioned t.hives h

(* Evicted from membership by the failure detector, but the process is
   (possibly) still running: its bees pause, its endpoints and transport
   links keep working, and a rejoin resumes it with state intact. *)
let hive_fenced t h = Hives.fenced t.hives h

let check_hive t h fn =
  if not (Hives.valid t.hives h) then invalid_arg ("Platform." ^ fn ^ ": bad hive")

let hive_state t h =
  check_hive t h "hive_state";
  Hives.state t.hives h

let hive_state_label = Hives.label

let members t = Hives.members t.hives
let member_count t = List.length (members t)
let placeable t h = Hives.placeable t.hives h

let count_drop drops reason =
  let i = drop_slot reason in
  drops.(i) <- drops.(i) + 1

let drop t reason = count_drop t.drops reason

let register_app t app =
  if t.started then invalid_arg "Platform.register_app: platform already started";
  if List.exists (fun a -> String.equal a.App.name app.App.name) t.apps then
    invalid_arg "Platform.register_app: duplicate app name";
  t.apps <- List.sort (fun a b -> String.compare a.App.name b.App.name) (app :: t.apps);
  Hashtbl.replace t.whole_dicts app.App.name
    (Cell.Set.of_list (List.map Cell.whole app.App.dicts));
  List.iter
    (fun h ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt t.subscribers h.App.on_kind) in
      Hashtbl.replace t.subscribers h.App.on_kind (prev @ [ (app, h) ]))
    app.App.handlers;
  (* Keep subscriber lists in deterministic app-name order. *)
  Hashtbl.iter
    (fun kind subs ->
      Hashtbl.replace t.subscribers kind
        (List.stable_sort
           (fun (a, _) (b, _) -> String.compare a.App.name b.App.name)
           subs))
    t.subscribers

let register_endpoint t ep cb = Hashtbl.replace t.endpoints ep cb

(* ------------------------------------------------------------------ *)
(* Bee lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

let get_bee t id = Hashtbl.find_opt t.bees id

(* The bee is gone for good. A local bee dies with its hive (crash or
   decommission): it holds no durable state, and a new one forms when the
   hive serves the app again. Any other bee's un-acked emits die with it. *)
let kill_bee t b =
  Bee.kill t.hives b;
  Registry.unassign_bee t.reg ~bee:b.id;
  if b.is_local then Hashtbl.remove t.local_bees (b.app.App.name, b.hive)
  else match t.store with Some s -> Store.forget s ~bee:b.id | None -> ()

(* ------------------------------------------------------------------ *)
(* Transmission and the outbox ack path                                *)
(* ------------------------------------------------------------------ *)

(* [Channels.Hive h], shared: naming a hive allocates nothing. *)
let hive_ep t h = Channels.hive_endpoint t.chans h

(* The hive a message came from; -1 for a system message. *)
let resolve_src t (msg : Message.t) =
  match msg.Message.src with
  | Message.From_bee { hive; _ } -> hive
  | Message.From_endpoint ep -> Channels.hive_of t.chans ep
  | Message.From_system -> -1

(* One lossy one-way send from hive [src] to hive [dst] on the failable
   wire: [k] runs on arrival, unless the wire loses the bytes. Nothing
   retries, acks or sequences it. *)
let datagram t ~src ~dst ~bytes k =
  match
    Channels.transfer_result t.chans ~src:(hive_ep t src) ~dst:(hive_ep t dst) ~bytes
      ~now:(now t)
  with
  | `Lost -> ()
  | `Delivered lat -> ignore (Engine.schedule_after t.engine lat k)

(* Moves [bytes] from [src_ep] to hive [dst_hive] and runs [lane]'s
   callback on [v] on arrival plus [extra] (e.g. lock-service latency
   already charged). Same-hive traffic is a plain post; cross-hive
   traffic rides the at-least-once {!Transport}. [on_drop] runs if the
   message can never arrive. A same-hive delivery and the [extra] wait
   after receipt sit in [dst_hive]'s memory: the callback asks
   {!since_wipe} of the hive it lands on, so [v] carries nothing more.
   Only the reliable path and a cross-hive [extra] wait allocate a
   closure; a caller whose arrival is a closure posts it on [t.thunks]. *)
let transmit t ~src_ep ~dst_hive ~bytes ~extra ?on_drop lane v =
  let src_hive = Channels.hive_of t.chans src_ep in
  let dst_ep = hive_ep t dst_hive in
  if src_hive = dst_hive then begin
    let lat = Channels.transfer t.chans ~src:src_ep ~dst:dst_ep ~bytes ~now:(now t) in
    Engine.post lane (Simtime.add lat extra) v
  end
  else begin
    let on_drop =
      match on_drop with
      | None -> t.on_exhausted
      | Some f ->
        fun () ->
          drop t Retransmit_exhausted;
          f ()
    in
    if Simtime.to_us extra = 0 then
      Transport.send t.transport ~src:src_ep ~dst:dst_ep ~bytes ~on_drop lane v
    else
      Transport.send t.transport ~src:src_ep ~dst:dst_ep ~bytes ~on_drop t.thunks (fun () ->
          Engine.post lane extra v)
  end

(* What the bee's durable inbox holds of the delivery's mark: one store
   lookup decides both whether to suppress it and whether to re-ack. *)
let inbox_mark t (b : bee) (d : Bee.delivery) =
  match (d.d_outbox, t.store, t.cfg.inject) with
  | _, _, Some Dedup_off -> Store.Unseen
  | Some mark, Some s, _ when not b.is_local -> Store.inbox_mark s ~bee:b.id mark
  | _ -> Store.Unseen

(* Entries exist only on a durable platform, in its store's outbox. *)
let retire_outbox_entry t s e =
  let bee = Outbox.sender e and seq = Outbox.seq e in
  Store.ack_outbox s ~bee ~seq;
  match t.replicator with Some r -> r.acked ~bee ~seq | None -> ()

let handle_outbox_ack t ~sender ~seq ~receiver =
  match t.store with
  | None -> ()
  | Some s -> (
    match Store.outbox_entry s ~bee:sender ~seq with
    | None -> ()  (* already retired; late duplicate ack *)
    | Some e -> (
      match Hashtbl.find t.bees sender with
      | sb when hive_crashed t sb.hive || sb.status = `Crashed || not (since_wipe t sb.hive) ->
        (* The sender's process is down, or crashed since the ack was
           queued toward it: nothing can write its WAL, so the ack is
           dropped. Replay after restart re-delivers, the receiver dedups
           and re-acks. *)
        ()
      | _ | (exception Not_found) -> if Outbox.ack e ~receiver then retire_outbox_entry t s e))

(* Handles one destination's acks, given newest first, oldest first. *)
let rec handle_outbox_acks t = function
  | [] -> ()
  | (receiver, sender, seq) :: older ->
    handle_outbox_acks t older;
    handle_outbox_ack t ~sender ~seq ~receiver

let batch_ack t dst ack =
  let n = Array.length t.ack_batches in
  if dst >= n then begin
    let grown = Array.make (max (dst + 1) (2 * n)) [] in
    Array.blit t.ack_batches 0 grown 0 n;
    t.ack_batches <- grown
  end;
  t.ack_batches.(dst) <- ack :: t.ack_batches.(dst)

(* Sorts handed-over acks, given newest first, oldest first into their
   sender's current hive's batch in [t.ack_batches], newest first. *)
let rec batch_acks t = function
  | [] -> ()
  | ((_, sender, _) as ack) :: older -> (
    batch_acks t older;
    match Hashtbl.find t.bees sender with
    | sb -> batch_ack t sb.hive ack
    | exception Not_found -> ())

(* Receiver-side half of the ack path, run at each hive fsync with the
   acks the store handed over: the marks that fsync made durable. Each
   is sent to its sender's current hive. Acks bound for the same hive
   ride one transport message, sent in hive order — per-message acks
   would double the fabric's message count on the healthy path. *)
let send_acks t hive acks =
  batch_acks t acks;
  for dst = 0 to Array.length t.ack_batches - 1 do
    match t.ack_batches.(dst) with
    | [] -> ()
    | acks ->
      t.ack_batches.(dst) <- [];
      transmit t ~src_ep:(hive_ep t hive) ~dst_hive:dst
        ~bytes:(16 * List.length acks) ~extra:Simtime.zero t.thunks
        (fun () -> handle_outbox_acks t acks)
  done

(* Re-acks a duplicate whose mark is durable: the sender evidently lost
   the first ack. A pending mark is not re-acked; the store hands its
   ack over when this hive's fsync commits it. *)
let ack_duplicate t (b : bee) (d : Bee.delivery) =
  match d.d_outbox with
  | Some (sender, seq) when sender >= 0 -> send_acks t b.hive [ (b.id, sender, seq) ]
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Handler execution helpers                                           *)
(* ------------------------------------------------------------------ *)

let safe_map t (handler : App.handler) msg =
  (* A mapper that raises is contained at the dispatch boundary: the
     message is dropped for that subscriber instead of unwinding the
     engine. *)
  try handler.App.map msg
  with exn ->
    t.n_handler_faults <- t.n_handler_faults + 1;
    Log.warn (fun m ->
        m "map for kind %s raised %s: dropping for this subscriber"
          msg.Message.kind (Printexc.to_string exn));
    Mapping.Drop

let run_idle_hooks (b : bee) =
  match b.on_idle with
  | [] -> ()
  | hooks ->
    b.on_idle <- [];
    List.iter (fun f -> f ()) (List.rev hooks)

let bee_source ~id ~hive (app : App.t) = Message.From_bee { bee = id; hive; app = app.App.name }

(* The bee's handler constants, their [From_bee] source rebuilt only once
   the bee has moved. *)
let env_of (b : bee) =
  match Context.source b.env with
  | Message.From_bee { hive; _ } when hive = b.hive -> b.env
  | Message.From_bee _ | Message.From_endpoint _ | Message.From_system ->
    let env = Context.with_source b.env ~src:(bee_source ~id:b.id ~hive:b.hive b.app) in
    b.env <- env;
    env

let bee_message t (b : bee) ?size ~kind payload =
  Message.make ?size ~kind ~src:(Context.source (env_of b)) ~sent_at:(now t) payload

let rec call_emit_hooks ~parent ~(child : Message.t) = function
  | [] -> ()
  | f :: rest ->
    f ~parent ~child ~emitter:child.Message.src;
    call_emit_hooks ~parent ~child rest

(* The walks below take a context's emits or sends newest first and show
   them to the emit hooks oldest first, recursing before acting: no
   reversed copy, no closure. *)
let rec report_emits hooks ~parent = function
  | [] -> ()
  | m :: older ->
    report_emits hooks ~parent older;
    call_emit_hooks ~parent ~child:m hooks

let rec report_sends hooks ~parent = function
  | [] -> ()
  | (_, m) :: older ->
    report_sends hooks ~parent older;
    call_emit_hooks ~parent ~child:m hooks

(* The outbox rows of emits, given newest first, under consecutive
   outbox seqs that end at [seq], oldest first. *)
let rec track_emits (b : bee) ~seq acc = function
  | [] -> acc
  | m :: older -> track_emits b ~seq:(seq - 1) (Outbox.emit ~sender:b.id ~seq m :: acc) older

(* The same emits as [(seq, message)] entries, oldest first. *)
let rec numbered ~seq acc = function
  | [] -> acc
  | m :: older -> numbered ~seq:(seq - 1) ((seq, m) :: acc) older

(* Ships one committed transaction to the installed replicator, if the
   bee's app is replicated: its write list, its tracked emits (newest
   first, numbered up to [last]) and the inbox mark it consumed. *)
let replicate t (b : bee) ~pending ~last emits ~consumed =
  match t.replicator with
  | Some r
    when b.app.App.replicated && (not b.is_local)
         && (pending <> [] || emits <> [] || Option.is_some consumed) ->
    r.commit
      { ci_bee = b.id; ci_hive = b.hive; ci_writes = pending;
        ci_emits = numbered ~seq:last [] emits; ci_inbox = Option.to_list consumed }
  | Some _ | None -> ()

(* Posts a bee's send, the context's own [(endpoint, message)] pair, to
   its endpoint. Kept through a crash of [b]'s hive: the send left at
   commit and is on the wire to an endpoint outside the hive. *)
let deliver_endpoint t (b : bee) ((ep, (m : Message.t)) as send) =
  let lat =
    Channels.transfer t.chans ~src:(hive_ep t b.hive) ~dst:ep ~bytes:m.Message.size
      ~now:(now t)
  in
  if Hashtbl.mem t.endpoints ep then Engine.post t.endpoint_sends lat send
  else drop t Missing_endpoint

(* [t.endpoint_sends]' callback. An endpoint removed while the send was
   on the wire (a decommissioned hive's) counts the send as dropped. *)
let land_send t (ep, (m : Message.t)) =
  match Hashtbl.find t.endpoints ep with
  | cb -> (
    try cb m
    with exn ->
      t.n_handler_faults <- t.n_handler_faults + 1;
      Log.warn (fun f ->
          f "endpoint callback for %s raised %s" m.Message.kind (Printexc.to_string exn)))
  | exception Not_found -> drop t Missing_endpoint

let rec deliver_sends t b = function
  | [] -> ()
  | send :: older ->
    deliver_sends t b older;
    deliver_endpoint t b send

(* Retry budget exhausted: park the message in the bee's quarantine so
   the engine keeps running, and consume it for good — its inbox mark is
   written (without any state delta), and acked once durable, so the
   sender stops replaying a message that can never be applied. *)
let quarantine_delivery t (b : bee) (d : Bee.delivery) exn =
  Outbox.quarantine t.outbox ~bee:b.id d.d_msg (Printexc.to_string exn);
  Log.warn (fun m ->
      m "bee %d (%s) quarantined a %s message after %d failed attempts" b.id
        b.app.App.name d.d_msg.Message.kind d.d_attempts);
  match t.store with
  | Some s when not b.is_local ->
    Store.append s ~bee:b.id ~hive:b.hive ~outbox:[] ~inbox:[] ?consumed:d.d_outbox []
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Live migration, carried out by {!Migration}                        *)
(* ------------------------------------------------------------------ *)

let start_transfer t (b : bee) ~dst hold reason ~resume =
  Migration.transfer t.engine ~reg:t.reg ~locks:t.locks ~hives:t.hives ~store:t.store
    ~stale_reads:(t.cfg.inject = Some Stale_read)
    ~transmit:(fun ~src_ep ~dst_hive ~bytes ~extra ~on_drop k ->
      transmit t ~src_ep ~dst_hive ~bytes ~extra ~on_drop t.thunks k)
    ~since_wipe:(since_wipe t) ~resume b hold ~landed:(fun ~src ~bytes ->
      t.version <- t.version + 1;
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
      Log.debug (fun m ->
          m "migrated bee %d (%s) hive %d -> %d (%s)" b.id b.app.App.name src dst reason))

(* ------------------------------------------------------------------ *)
(* The life of a message: dispatch, handler completion, route, enqueue *)
(* ------------------------------------------------------------------ *)

(* One handler execution: [open_context] and [run_handler] run the
   handler body against the bee's transaction; [complete] then commits,
   routes, appends to the WAL, runs hooks or retries and quarantines,
   and frees the bee for its next message. *)
let open_context t (b : bee) (d : Bee.delivery) =
  let msg = d.d_msg in
  if d.d_attempts = 0 then begin
    Stats.record_in b.stats ~src_hive:(resolve_src t msg);
    Stats.record_latency t.latency (Simtime.diff (now t) msg.Message.sent_at)
  end;
  let read_shadow =
    match b.stale_shadow with
    | Some _ when Simtime.(now t >= b.stale_until) ->
      b.stale_shadow <- None;
      None
    | shadow -> shadow
  in
  (* Transactional outbox: emits and endpoint sends buffer in the
     context while the handler runs and only take effect at commit; an
     abort discards them together with the state delta. Emits from
     asynchronous continuations that outlive the handler (e.g.
     external-store RPC callbacks) arrive after the context closed: they
     cannot ride the commit, so [t.late] dispatches them immediately —
     and they get none of the exactly-once guarantees, which is
     precisely the external-store liability the paper argues against. *)
  Context.make (env_of b) ~read_shadow ~allowed:d.d_allowed ~tx:(State.begin_tx b.state)
    ~message:msg

let run_handler (d : Bee.delivery) ctx =
  let failure =
    match d.d_handler.App.rcv ctx d.d_msg with () -> None | exception exn -> Some exn
  in
  Context.close ctx;
  failure

(* The lowest hive above [above] that hosts one of [owners] (bee ids),
   or [best] when none is lower. *)
let rec next_owner_hive t ~above best = function
  | [] -> best
  | id :: rest ->
    let h = (Hashtbl.find t.bees id).hive in
    next_owner_hive t ~above (if h > above && h < best then h else best) rest

(* The Foreach legs to the [owners] on hive [h], in owner order, each
   with its owner's cells that pass [in_dict] now, at routing. *)
let[@tail_mod_cons] rec legs_on t h ~in_dict msg handler = function
  | [] -> []
  | id :: rest ->
    if (Hashtbl.find t.bees id).hive = h then
      delivery ~to_:id msg handler
        (Cell.Set.filter in_dict (Registry.bee t.reg id).Registry.bee_cells)
        None
      :: legs_on t h ~in_dict msg handler rest
    else legs_on t h ~in_dict msg handler rest

(* Messages in flight to a bee that has since been merged away follow
   its forwarding pointer to the surviving bee. *)
let rec forwarded t (b : bee) =
  match (b.status, b.forwarded_to) with
  | `Dead, Some w when t.cfg.inject <> Some Forwarding_off -> forwarded t w
  | _ -> b

let rec maybe_process t (b : bee) =
  if Bee.runnable b && (not b.busy) && not (Mailbox.is_empty b.mailbox) then begin
    let d = Mailbox.pop b.mailbox in
    match inbox_mark t b d with
    | (Store.Pending | Store.Durable) as seen ->
      (* Already consumed: suppress the handler entirely, and re-ack a
         durable mark's sender, whose previous ack evidently got lost. *)
      Outbox.note_duplicate t.outbox;
      if seen = Store.Durable then ack_duplicate t b d;
      maybe_process t b
    | Store.Unseen ->
      b.busy <- true;
      let cost =
        (* A cost estimator that raises is contained at the dispatch
           boundary, not allowed to escape into Engine.run. *)
        try d.d_handler.App.cost d.d_msg
        with _ ->
          t.n_handler_faults <- t.n_handler_faults + 1;
          App.default_cost
      in
      b.handling <- d;
      b.handling_cost <- cost;
      b.handling_event <- Engine.schedule_after t.engine cost b.completion
  end

(* The bee's [completion] callback. Only the event scheduled for the
   delivery in hand runs its handler: a completion left queued when the
   bee's life ended finds [Engine.none] in [handling_event], or the event
   of the next dispatch. *)
and run_completion t (b : bee) =
  if Engine.running t.engine == b.handling_event then begin
    let d = b.handling in
    b.handling <- idle;
    let ctx = open_context t b d in
    complete t b d b.handling_cost ctx (run_handler d ctx)
  end

and complete t (b : bee) (d : Bee.delivery) cost ctx failure =
  let msg = d.d_msg in
  let tx = Context.tx ctx in
  t.n_processed <- t.n_processed + 1;
  (match failure with
  | None ->
    (* Only the store (for a non-local bee) and a replicator read the
       write list. *)
    let pending =
      if
        (not b.is_local)
        && (Option.is_some t.store || (b.app.App.replicated && Option.is_some t.replicator))
      then State.tx_pending tx
      else []
    in
    State.commit tx;
    let emits = Context.emitted ctx and sends = Context.sent ctx in
    (* Only the emit hooks see what a handler emitted. *)
    if t.emit_hooks <> [] && (emits <> [] || sends <> []) then begin
      let parent = Some msg in
      report_emits t.emit_hooks ~parent emits;
      report_sends t.emit_hooks ~parent sends
    end;
    (match t.store with
    | Some s when not b.is_local ->
      (* Tracked: the emits and this delivery's inbox mark are written to
         the WAL in the same group-commit record as the state delta; once
         durable, the store's fsync report hands the emits to transport
         and the mark back as the sender's ack. *)
      let n = List.length emits in
      let last = if n = 0 then 0 else Store.alloc_out_seqs s ~bee:b.id n + n - 1 in
      let rows = track_emits b ~seq:last [] emits in
      Store.append s ~bee:b.id ~hive:b.hive ~outbox:rows ~inbox:[] ?consumed:d.d_outbox
        pending;
      deliver_sends t b sends;
      replicate t b ~pending ~last emits ~consumed:d.d_outbox
    | Some _ | None ->
      (* Untracked emits (no store, or a local bee) dispatch at commit
         time. *)
      if emits <> [] then route_emits t ~src_ep:(hive_ep t b.hive) emits;
      deliver_sends t b sends;
      replicate t b ~pending ~last:0 [] ~consumed:None)
  | Some exn ->
    (* Handler failure containment: the state delta and every buffered
       emit are discarded atomically, then the delivery is retried with
       backoff until the budget runs out and the message is quarantined. *)
    ignore (State.rollback tx);
    t.n_handler_faults <- t.n_handler_faults + 1;
    Log.warn (fun m ->
        m "bee %d (%s) handler for %s raised %s (attempt %d)" b.id b.app.App.name
          msg.Message.kind (Printexc.to_string exn) (d.d_attempts + 1));
    d.d_attempts <- d.d_attempts + 1;
    match Outbox.retry_delay ~attempts:d.d_attempts with
    | Some delay ->
      (* The retry waits in the memory of the bee's hive: a crash there
         erases it, and so does a fail over to another hive. *)
      let inc = b.incarnation in
      ignore
        (Engine.schedule_after t.engine delay (fun () ->
             if b.status = `Active && since_wipe t b.hive && b.incarnation = inc then begin
               Mailbox.push d b.mailbox;
               maybe_process t b
             end))
    | None -> quarantine_delivery t b d exn);
  Stats.record_done b.stats ~busy:cost;
  b.busy <- false;
  run_idle_hooks b;
  maybe_process t b

and route_emits t ~src_ep = function
  | [] -> ()
  | m :: older ->
    route_emits t ~src_ep older;
    route t ~src_ep m

(* [t.arrivals]' callback: a leg lands at the bee routing picked. *)
and arrive t (d : Bee.delivery) = enqueue t (Hashtbl.find t.bees d.d_to) d

(* [t.fanouts]' callback: a Foreach copy lands with its hive's legs. *)
and arrive_all t = function
  | [] -> ()
  | d :: rest ->
    arrive t d;
    arrive_all t rest

(* A delivery lands in the memory of [b]'s hive, so one scheduled before
   that hive last crashed was erased with it. *)
and enqueue t (b : bee) d =
  let b = forwarded t b in
  match b.status with
  | `Active when since_wipe t b.hive ->
    Mailbox.push d b.mailbox;
    maybe_process t b
  | `Active | `Dead | `Crashed -> drop t Dead_target

(* Applies the {!Route_plan} for one Cells leg, then sends the message to
   the bee it picked. *)
and route_cells t ~(app : App.t) ~(handler : App.handler) ~src_ep ~origin ~outbox cs msg =
  let name = app.App.name in
  let owner = Registry.owner t.reg ~app:name cs in
  match
    Route_plan.decide t.reg t.hives t.lookup_cache ~capacity:t.cfg.hive_capacity
      ~version:t.version ~app:name ~origin ~owner cs
  with
  | Route_plan.Create home ->
    let b = new_bee t ~app ~hive:home ~is_local:false in
    if hive_fenced t home then
      (* A fenced hive still serves its side of a partition, but its
         new bees hold until the hive rejoins. *)
      Bee.take t.hives b Fenced;
    Registry.assign t.reg ~bee:b.id cs;
    t.version <- t.version + 1;
    let extra = Cell_locks.charge_rpc t.locks ~hive:origin in
    send_cells t b ~extra ~handler ~src_ep ~outbox cs msg
  | Route_plan.Use ->
    send_cells t (Hashtbl.find t.bees owner) ~extra:Simtime.zero ~handler ~src_ep ~outbox cs msg
  | Route_plan.Lookup ->
    (* Remote owner: consult the (cached) lock service. *)
    let extra = Cell_locks.charge_rpc t.locks ~hive:origin in
    Route_plan.remember t.lookup_cache ~origin ~app:name cs ~owner ~version:t.version;
    send_cells t (Hashtbl.find t.bees owner) ~extra ~handler ~src_ep ~outbox cs msg
  | Route_plan.Claim cells ->
    Registry.assign t.reg ~bee:owner cells;
    t.version <- t.version + 1;
    let extra = Cell_locks.charge_rpc t.locks ~hive:origin in
    send_cells t (Hashtbl.find t.bees owner) ~extra ~handler ~src_ep ~outbox cs msg
  | Route_plan.Merge { winner; losers } ->
    let winner = Hashtbl.find t.bees winner in
    merge_into t ~app:name winner (List.map (Hashtbl.find t.bees) losers) cs;
    let extra = Cell_locks.charge_rpc t.locks ~hive:origin in
    t.version <- t.version + 1;
    send_cells t winner ~extra ~handler ~src_ep ~outbox cs msg
  | Route_plan.Drop -> drop t Dead_target

(* Folds [losers] into [winner], then claims the mapped cells [cs] it
   does not own. The claim must wait for every loser's deferred fold-in:
   a busy loser still owns its cells until it goes idle, and assigning a
   wildcard before then would break single-ownership. Meanwhile a put
   may create an owner of some of [cs]: the claim folds such a late
   owner in first. (A dead owner, which keeps its cells, is never
   folded.) The winner stays held throughout, so the message routed to
   it queues behind the completed merge. *)
and merge_into t ~app winner losers cs =
  t.n_merges <- t.n_merges + List.length losers;
  t.version <- t.version + 1;
  Migration.merge t.engine ~chans:t.chans ~reg:t.reg ~hives:t.hives ~store:t.store
    ~resume:(maybe_process t) ~winner ~losers ~k:(fun () ->
      let late id = id <> winner.id && (Hashtbl.find t.bees id).status <> `Dead in
      match List.filter late (Registry.owners t.reg ~app cs) with
      | [] -> Registry.assign t.reg ~bee:winner.id (Route_plan.unowned t.reg ~bee:winner.id cs)
      | late -> merge_into t ~app winner (List.map (Hashtbl.find t.bees) late) cs)

(* Sends a Cells leg to the bee routing picked, [extra] (lock-service
   time) after its transfer. *)
and send_cells t (b : bee) ~extra ~handler ~src_ep ~outbox cs msg =
  if hive_crashed t b.hive then drop t Dead_target
  else begin
    let d_outbox =
      match outbox with
      | Some _ -> outbox
      | None ->
        (* Injected, system and local-origin messages get a virtual
           exactly-once id (sender -1): never replayed or acked, but
           the receiver's durable inbox mark closes the double-delivery
           window a transport-level dedup reset (receiver crash) opens. *)
        if (not b.is_local) && t.store <> None then
          Some (-1, Outbox.next_virtual_seq t.outbox)
        else None
    in
    (* Fenced targets still receive: the transport buffers through the
       partition and the bee's paused mailbox holds the message until
       the hive rejoins, so nothing is lost to a false suspicion. *)
    transmit t ~src_ep ~dst_hive:b.hive ~bytes:msg.Message.size ~extra t.arrivals
      (delivery ~to_:b.id msg handler cs d_outbox)
  end

and route_foreach t ~(app : App.t) ~(handler : App.handler) ~src_ep dict msg =
  let in_dict (c : Cell.t) = String.equal c.Cell.dict dict in
  let owners = Registry.owners_of_dict t.reg ~app:app.App.name ~dict in
  (* Fan out: one control-channel copy per hive hosting owners, hives in
     ascending id, then local delivery to that hive's owners in owner
     order. *)
  let h = ref (next_owner_hive t ~above:(-1) max_int owners) in
  while !h < max_int do
    let hive = !h in
    if not (hive_crashed t hive) then begin
      transmit t ~src_ep ~dst_hive:hive ~bytes:msg.Message.size ~extra:Simtime.zero t.fanouts
        (legs_on t hive ~in_dict msg handler owners)
    end;
    h := next_owner_hive t ~above:hive max_int owners
  done

and route_local t ~(app : App.t) ~(handler : App.handler) ~src_ep ~origin msg =
  let deliver_on h =
    if hive_alive t h then
      match local_bee_of t ~app ~hive:h with
      | None -> ()
      | Some b ->
        transmit t ~src_ep ~dst_hive:h ~bytes:msg.Message.size ~extra:Simtime.zero t.arrivals
          (delivery ~to_:b.id msg handler (Hashtbl.find t.whole_dicts app.App.name) None)
  in
  (* System messages (timer ticks) trigger local handlers on every hive;
     ordinary messages only on their origin hive. *)
  match msg.Message.src with
  | Message.From_system ->
    for h = 0 to n_hives t - 1 do
      deliver_on h
    done
  | Message.From_bee _ | Message.From_endpoint _ -> deliver_on origin

(* A bee's [completion] is its one callback for every handler it runs,
   so [new_bee] sits in the dispatch knot. *)
and new_bee t ~(app : App.t) ~hive ~is_local =
  let id = t.next_bee in
  t.next_bee <- t.next_bee + 1;
  let env =
    Context.env ~src:(bee_source ~id ~hive app) ~now:t.clock
      ~rng:(Rng.split (Engine.rng t.engine)) ~late:t.late
  in
  let b = Bee.create ~id ~app ~hive ~is_local ~env ~idle in
  b.completion <- (fun () -> run_completion t b);
  Hashtbl.add t.bees id b;
  ignore (Registry.register_bee t.reg ~bee_id:id ~app:app.App.name ~hive);
  b

and local_bee_of t ~(app : App.t) ~hive =
  match Hashtbl.find_opt t.local_bees (app.App.name, hive) with
  | Some id -> get_bee t id
  | None ->
    if not (hive_alive t hive) then None
    else begin
      let b = new_bee t ~app ~hive ~is_local:true in
      Hashtbl.replace t.local_bees (app.App.name, hive) b.id;
      Some b
    end

(* Maps [msg] for every subscriber and routes each leg; returns the
   number of Cells legs. An outbox replay ([first = false]) re-sends only
   the Cells legs, the ones the receivers' durable inboxes dedup. *)
and route_subscribers t ~src_ep ~origin ~outbox ~first msg =
  match Hashtbl.find t.subscribers msg.Message.kind with
  | subs -> route_legs t ~src_ep ~origin ~outbox ~first msg 0 subs
  | exception Not_found -> 0

and route_legs t ~src_ep ~origin ~outbox ~first msg legs = function
  | [] -> legs
  | ((app : App.t), handler) :: rest ->
    let legs =
      match safe_map t handler msg with
      | Mapping.Drop -> legs
      | Mapping.Cells cs when Cell.Set.is_empty cs -> legs
      | Mapping.Cells cs ->
        route_cells t ~app ~handler ~src_ep ~origin ~outbox cs msg;
        legs + 1
      | Mapping.Local ->
        if first then route_local t ~app ~handler ~src_ep ~origin msg;
        legs
      | Mapping.Foreach dict ->
        if first then route_foreach t ~app ~handler ~src_ep dict msg;
        legs
    in
    route_legs t ~src_ep ~origin ~outbox ~first msg legs rest

and route t ~src_ep msg =
  let origin = Channels.hive_of t.chans src_ep in
  (* A fenced origin keeps routing (the process is still up and serves
     its partition side); only a genuinely crashed origin drops. *)
  if not (hive_crashed t origin) then
    ignore (route_subscribers t ~src_ep ~origin ~outbox:None ~first:true msg)
  else drop t Dead_origin

(* The platform's [Context.late] sink: an emit or send made after its
   handler returned is built at the bee's current hive, reported to the
   emit hooks and dispatched at once. *)
let late_emit t ctx ep ?size ~kind payload =
  let b = Hashtbl.find t.bees (Context.bee_id ctx) in
  let m = bee_message t b ?size ~kind payload in
  call_emit_hooks ~parent:(Some (Context.message ctx)) ~child:m t.emit_hooks;
  match ep with
  | None -> route t ~src_ep:(hive_ep t b.hive) m
  | Some ep -> deliver_endpoint t b (ep, m)

(* ------------------------------------------------------------------ *)
(* Outbox dispatch and replay                                          *)
(* ------------------------------------------------------------------ *)

(* Hands one durable outbox entry to routing. Only Cells legs are
   tracked end-to-end; Local and Foreach legs are fired on the first
   dispatch only (replaying them would double-deliver, as they have no
   per-receiver durable dedup — a documented limitation). *)
let rec dispatch_outbox_entry t s e ~first =
  match Hashtbl.find t.bees (Outbox.sender e) with
  | b
    when (not (hive_crashed t b.hive))
         && (match b.status with
            | `Active -> true
            | `Dead -> b.forwarded_to <> None  (* merged away, entries live on *)
            | `Crashed -> false)
    ->
    Outbox.start_attempt e ~now:(now t);
    arm_outbox_recheck t s e;
    let legs =
      route_subscribers t ~src_ep:(hive_ep t b.hive) ~origin:b.hive
        ~outbox:(Some (Outbox.sender e, Outbox.seq e)) ~first (Outbox.msg e)
    in
    if Outbox.set_required e legs then retire_outbox_entry t s e
  | _ | (exception Not_found) ->
    (* Sender down. A crashed hive's entries are replayed by restart_hive;
       a merely-fenced sender needs the recheck chain kept alive so the
       replay resumes by itself once the fence lifts. *)
    if Outbox.attempted e then arm_outbox_recheck t s e

(* One engine timer per dispatched entry, armed at that attempt's backoff
   horizon, instead of a per-tick scan of every un-acked entry (the scan
   made the healthy path pay for the fault path). The timer re-dispatches
   only if the store's outbox still holds this very entry and no newer
   attempt superseded the one that armed it. Only a durable entry is
   ever dispatched, and no entry returns to a pending record, so one
   that is still there is still durable. *)
and arm_outbox_recheck t s e =
  let since = Outbox.last_attempt e in
  (* Kept through the sender's crash: restart replays every entry, a new
     attempt, so this timer is no longer [still_due]. *)
  ignore
    (Engine.schedule_after t.engine (Outbox.backoff e) (fun () ->
         let current = Store.outbox_entry s ~bee:(Outbox.sender e) ~seq:(Outbox.seq e) in
         if Outbox.still_due e ~current ~since then dispatch_outbox_entry t s e ~first:false))

(* Store fsync callback: these entries, given newest first, just became
   durable together with their transaction's state delta — the earliest
   instant the platform may hand them to transport. They are dispatched
   oldest first. *)
let rec outbox_now_durable t s = function
  | [] -> ()
  | e :: older ->
    outbox_now_durable t s older;
    dispatch_outbox_entry t s e ~first:true

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let inject t ~from ?size ~kind payload =
  let msg =
    Message.make ?size ~kind ~src:(Message.From_endpoint from) ~sent_at:(now t) payload
  in
  call_emit_hooks ~parent:None ~child:msg t.emit_hooks;
  route t ~src_ep:from msg

let emit_system t ~hive ~size ~kind payload =
  let msg = Message.make ~size ~kind ~src:Message.From_system ~sent_at:(now t) payload in
  route t ~src_ep:(hive_ep t hive) msg

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
                     t.n_handler_faults <- t.n_handler_faults + 1;
                     Log.warn (fun m ->
                         m "timer %s tick generator raised %s" tm.App.timer_kind
                           (Printexc.to_string exn))))))
        app.App.timers)
    t.apps

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

(* The bees satisfying [pred], in ascending id order. *)
let sorted_bees t pred =
  Hashtbl.fold (fun _ (b : bee) acc -> if pred b then b :: acc else acc) t.bees []
  |> List.sort (fun (a : bee) b -> Int.compare a.id b.id)

let view_of t (b : bee) =
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

let bee_view t id = Option.map (view_of t) (get_bee t id)

let live_bee_hive t id =
  match Hashtbl.find t.bees id with
  | { status = `Active; hive; _ } -> Some hive
  | { status = `Crashed | `Dead; _ } | (exception Not_found) -> None

let live_bees t = List.map (view_of t) (sorted_bees t (fun b -> b.status <> `Dead))

let bee_stats t id = Option.map (fun b -> b.stats) (get_bee t id)

let bee_state_entries t id =
  match get_bee t id with Some b -> State.snapshot b.state | None -> []

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
  for id = 0 to t.next_bee - 1 do
    let b = Hashtbl.find t.bees id in
    if b.hive = hive && b.status <> `Dead then
      f ~bee:id ~app:b.app.App.name (Stats.take_window b.stats)
  done

(* ------------------------------------------------------------------ *)
(* Placement control                                                   *)
(* ------------------------------------------------------------------ *)

(* No module but this one reads [hive_capacity]: route planning,
   migration admission and the drain evacuation all apply
   {!Route_plan}'s one placement rule with it. *)
let least_loaded_hive t ~exclude ~cells =
  Route_plan.least_loaded t.reg t.hives ~capacity:t.cfg.hive_capacity ~exclude ~cells

let migrate_bee t ~bee ~to_hive ~reason =
  match get_bee t bee with
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
      let start () = start_transfer t b ~dst:to_hive hold reason ~resume:(maybe_process t) in
      if b.busy then b.on_idle <- start :: b.on_idle else start ();
      true
    end

let migrations t = List.rev t.migration_log
let on_hive t f = t.hive_hooks <- f :: t.hive_hooks
let fire t h ev = List.iter (fun f -> f h ev) t.hive_hooks
let on_fsync t f = t.fsync_hooks <- f :: t.fsync_hooks
let on_emit t f = t.emit_hooks <- f :: t.emit_hooks

let set_replicator t r =
  if Option.is_some t.replicator then invalid_arg "Platform.set_replicator: already set";
  t.replicator <- Some r

(* ------------------------------------------------------------------ *)
(* Outbox / quarantine introspection                                   *)
(* ------------------------------------------------------------------ *)

let outbox_unacked_total t =
  match t.store with Some s -> Store.outbox_total s | None -> 0
let handler_faults t = t.n_handler_faults
let total_quarantined t = Outbox.total_quarantined t.outbox
let quarantined_messages t ~bee = Outbox.quarantined_messages t.outbox ~bee

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)
(* ------------------------------------------------------------------ *)

let bees_on t h ~pred = sorted_bees t (fun b -> b.hive = h && pred b)

(* What the installed replicator (e.g. Raft) holds of this bee, if
   anything: the state and outbox a failover or peer re-seed restores. *)
let replica t (b : bee) =
  match t.replicator with
  | Some r when b.app.App.replicated -> r.recover ~bee:b.id
  | Some _ | None -> None

(* Where a bee leaving [from_hive] can fail over to: the next placeable
   hive in id order, with the replica the replicator holds.
   None when either is missing — the bee then takes the unrecoverable
   path instead of being revived on a hive that cannot host it. *)
let failover_target t (b : bee) ~from_hive =
  let n = n_hives t in
  let rec pick k =
    if k = n then None
    else if placeable t ((from_hive + k) mod n) then Some ((from_hive + k) mod n)
    else pick (k + 1)
  in
  match replica t b with
  | None -> None
  | Some r -> Option.map (fun bh -> (bh, r)) (pick 1)

let failover_bee t (b : bee) ~from_hive ~to_hive r =
  Recovery.failover ~reg:t.reg ~hives:t.hives ~store:t.store b ~from_hive
    ~to_hive r;
  maybe_process t b

(* Process death: the hive stops cold. Local bees die; every other bee
   crashes, and the hive's wipe mark voids every event its memory held.
   No recovery happens here — that is {!failover_hive}'s job, run either
   immediately (the classic {!fail_hive}) or when the failure detector
   confirms the death. *)
let crash_hive t h =
  check_hive t h "crash_hive";
  if Hives.crash t.hives h ~mark:(Engine.pushes t.engine) then begin
    t.version <- t.version + 1;
    fire t h Crashed;
    (* Batches not yet group-committed die with the hive. *)
    (match t.store with Some s -> Store.drop_pending s ~hive:h | None -> ());
    (* The process's in-memory transport state dies with it: senders on h
       lose their in-flight windows, and h's receiver-side dedup cutoffs
       reset — retransmissions racing the restart re-deliver, and only the
       durable inbox keeps them exactly-once. *)
    Transport.crash_hive t.transport h;
    List.iter
      (fun (b : bee) ->
        if b.is_local then kill_bee t b else Bee.crash t.hives b)
      (bees_on t h ~pred:(fun b -> b.status <> `Dead))
  end

(* Recovery of a dead hive's crashed bees: recoverable replicated bees
   fail over to the next placeable hive; durable bees stay crashed in
   place (restart_hive revives them); everything else dies with its
   cells. Idempotent. *)
let failover_hive t h =
  List.iter
    (fun (b : bee) ->
      match failover_target t b ~from_hive:h with
      | Some (to_hive, r) -> failover_bee t b ~from_hive:h ~to_hive r
      | None -> (
        match t.store with
        | Some _ when not b.is_local ->
          (* Durable crash: the dictionaries live on in snapshot+WAL;
             the registry keeps the cells so ownership stays unique
             and restart_hive revives the bee in place. *)
          ()
        | Some _ | None -> kill_bee t b))
    (bees_on t h ~pred:(fun b -> b.status = `Crashed))

let fail_hive t h =
  if hive_alive t h then begin
    crash_hive t h;
    failover_hive t h
  end

(* Membership eviction of a hive whose process may still be running (a
   confirmed suspicion that could be a false positive). Recoverable
   replicated bees fail over, which ends their old life: the stale-claim
   fence against the possibly-alive old instance. Everything else is
   fenced in place, state and mailbox intact, and resumes on rejoin. *)
let evict_hive t h =
  if Hives.evict t.hives h then begin
    t.version <- t.version + 1;
    List.iter
      (fun (b : bee) ->
        match if b.is_local then None else failover_target t b ~from_hive:h with
        | Some (to_hive, r) -> failover_bee t b ~from_hive:h ~to_hive r
        | None -> Bee.take t.hives b Fenced)
      (bees_on t h ~pred:(fun b -> b.status = `Active))
  end

let unfence_hive t h =
  List.iter
    (fun (b : bee) -> if Bee.release t.hives b Fenced then maybe_process t b)
    (bees_on t h ~pred:(fun b -> Bee.holds b Fenced))

(* A fenced hive reappeared (the suspicion was false): bring it back into
   membership and resume its bees, which drain everything the transport
   buffered toward them during the eviction. *)
let rejoin_hive t h =
  if Hives.rejoin t.hives h then begin
    t.version <- t.version + 1;
    unfence_hive t h;
    Log.info (fun m -> m "hive %d rejoined after eviction" h)
  end

(* ------------------------------------------------------------------ *)
(* Storage integrity: scrub and verification                          *)
(* ------------------------------------------------------------------ *)

(* One background scrub slice. Damage on a live bee is repaired on the
   spot by rewriting its storage from process memory; damage on a crashed
   or fenced bee keeps its suspect verdict for restart_hive to consult
   before replay. *)
let scrub_slice t ~budget_bytes =
  match t.store with
  | None -> ()
  | Some s ->
    let _scanned, damaged = Store.scrub s ~budget_bytes in
    List.iter
      (fun (bee, detail) ->
        match get_bee t bee with
        | Some b
          when (not b.is_local)
               && b.status = `Active
               && hive_alive t b.hive
               && not (Bee.holds b Fenced) ->
          Store.rewrite s ~bee ~entries:(State.snapshot b.state);
          Log.info (fun m ->
              m "bee %d: corrupt storage rewritten from live state (%s)" bee detail)
        | Some _ | None -> ())
      damaged

let scrub_now t = scrub_slice t ~budget_bytes:max_int

let storage_suspects t =
  match t.store with None -> [] | Some s -> Store.suspects s

(* Omniscient oracle (monitors only): re-derives every durable bee's
   chain verdict from the actual frame bytes, ignoring an injected
   [Checksums_off] — the ground truth a
   no-silent-corruption monitor compares production behaviour against. *)
let broken_chains t =
  match t.store with
  | None -> []
  | Some s ->
    Hashtbl.fold
      (fun _ (b : bee) acc ->
        if b.is_local || b.status = `Dead then
          acc
        else
          match Store.verify_chain s ~bee:b.id with
          | Some detail -> (b.id, detail) :: acc
          | None -> acc)
      t.bees []

(* fsck verdicts for a crashed hive's bees, truncating torn tails in
   place — what the recovery-identity check must run before computing its
   expected durable cut (a torn tail is not recoverable data). *)
let fsck_crashed_bees t h =
  match t.store with
  | None -> []
  | Some s ->
    List.map
      (fun (b : bee) -> (b.id, Store.fsck s ~bee:b.id))
      (bees_on t h ~pred:(fun b -> b.status = `Crashed))

let restart_hive t h =
  check_hive t h "restart_hive";
  match Hives.restart t.hives h with
  | None -> ()
  | Some was_crashed ->
    t.version <- t.version + 1;
    fire t h Restarted;
    (* Restarting a merely-fenced hive is just a rejoin. *)
    unfence_hive t h;
    if was_crashed then
      match t.store with
      | None -> ()
      | Some s ->
        let crashed = bees_on t h ~pred:(fun b -> b.status = `Crashed) in
        let revived =
          List.filter
            (fun (b : bee) ->
              let up =
                Recovery.revive s ~hives:t.hives ~hive:h b (replica t b)
              in
              if up then maybe_process t b;
              up)
            crashed
        in
        List.iter
          (fun (b : bee) ->
            if t.cfg.inject = Some Lost_outbox then begin
              (* Injected bug [lost-outbox]: recovery "loses" the
                 outbox file, so acked-durable emits are never
                 re-sent. The exactly-once monitor must catch this. *)
              Store.drop_outbox s ~bee:b.id
            end
            else begin
              if t.cfg.inject = Some Replay_dup then
                (* Injected bug [replay-dup]: recovery "loses" the
                   durable dedup cutoff, so replayed entries (and
                   transport retransmissions) double-apply. *)
                Store.wipe_inbox s ~bee:b.id;
              (* Replay: every durable un-acked outbox entry is re-sent;
                 receivers that already applied it dedup and re-ack. *)
              List.iter
                (fun e -> dispatch_outbox_entry t s e ~first:false)
                (Store.outbox_unacked s ~bee:b.id)
            end)
          revived

(* ------------------------------------------------------------------ *)
(* Elastic membership: join, drain, decommission                       *)
(* ------------------------------------------------------------------ *)

(* Joins a fresh hive at runtime: the fabric grows a row/column of
   healthy links, the hive id space extends by one, and subscribers
   (failure detector, raft replication) hear about it as [Added]. The
   new hive starts alive and empty; placement and rebalancing fill it. *)
let add_hive t =
  let id = Channels.add_hive t.chans in
  let id' = Hives.add t.hives in
  assert (id = id');
  t.version <- t.version + 1;
  fire t id Added;
  Log.info (fun m -> m "hive %d joined (cluster size %d)" id (id + 1));
  id

let set_draining t h flag =
  check_hive t h "set_draining";
  if hive_decommissioned t h then invalid_arg "Platform.set_draining: hive decommissioned";
  if Hives.set_draining t.hives h flag then begin
    t.version <- t.version + 1;
    Log.info (fun m -> m "hive %d %s" h (if flag then "draining" else "drain cancelled"));
    if flag then fire t h Draining
  end

let inbound_transfers t h = Hives.inbound t.hives h

(* A drain is complete when the hive owns no cells, hosts no live
   non-local bee, no migration is still in flight toward it, and no
   transport message to or from it is still undelivered (decommission
   would drop it). Crashed durable bees count as residents: their cells
   must be recovered (via restart) before the hive can leave. *)
let drain_complete t h =
  Hives.valid t.hives h
  && Registry.cells_on_hive t.reg ~hive:h = 0
  && Hives.inbound t.hives h = 0
  && Transport.in_flight t.transport h = 0
  && bees_on t h ~pred:(fun b -> (not b.is_local) && b.status <> `Dead) = []

(* Removes a fully-drained hive from the cluster: local bees die, links
   are torn down, endpoints freed, and the id is retired for good; then
   [Decommissioned] fires. Returns false (and does nothing) if the hive
   still hosts cells or transfers. *)
let decommission_hive t h =
  check_hive t h "decommission_hive";
  if hive_decommissioned t h then true
  else if not (drain_complete t h) then false
  else begin
    List.iter (kill_bee t)
      (bees_on t h ~pred:(fun b -> b.is_local && b.status <> `Dead));
    Hives.decommission t.hives h;
    t.version <- t.version + 1;
    Transport.close_hive t.transport h;
    Hashtbl.remove t.endpoints (Channels.Hive h);
    fire t h Decommissioned;
    Log.info (fun m -> m "hive %d decommissioned (cluster size %d)" h (member_count t));
    true
  end

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let total_processed t = t.n_processed
let total_lock_rpcs t = Cell_locks.rpcs t.locks
let total_bee_merges t = t.n_merges
let total_dropped t = Array.fold_left ( + ) 0 t.drops

let paused_bees t =
  Hashtbl.fold
    (fun _ (b : bee) acc -> if b.status <> `Dead && Bee.held b then acc + 1 else acc)
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
        ( "membership." ^ hive_state_label st,
          List.length (List.filter (( = ) st) states) ))
      [ `Alive; `Draining; `Fenced; `Crashed; `Decommissioned ]
  in
  Transport.gauges t.transport
  @ [
    ("outbox.unacked", outbox_unacked_total t);
    ("outbox.dups_suppressed", Outbox.duplicates t.outbox);
    ("outbox.handler_faults", t.n_handler_faults);
    ("quarantine.total", Outbox.total_quarantined t.outbox);
    ("quarantine.bees", Outbox.quarantined_bees t.outbox);
    ("membership.hives", member_count t);
  ]
  @ List.map (fun (k, v) -> ("integrity." ^ k, v)) integrity
  @ per_state
  @ Array.to_list (Array.mapi (fun i g -> (g, t.drops.(i))) drop_gauges)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let message_latency_percentile t p = Stats.latency_percentile t.latency p

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

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
  let locks = Cell_locks.create engine chans in
  let drops = Array.make (Array.length drop_gauges) 0 in
  let t =
  {
    engine;
    cfg;
    chans;
    transport;
    reg = Registry.create ();
    locks;
    apps = [];
    subscribers = Hashtbl.create 32;
    bees = Hashtbl.create 256;
    local_bees = Hashtbl.create 64;
    whole_dicts = Hashtbl.create 8;
    next_bee = 0;
    version = 0;
    lookup_cache = Route_plan.create_cache ();
    hives;
    endpoints = Hashtbl.create 64;
    store = None;
    migration_log = [];
    replicator = None;
    hive_hooks = [];
    fsync_hooks = [];
    emit_hooks = [];
    started = false;
    n_processed = 0;
    n_merges = 0;
    latency = Stats.latency ();
    drops;
    outbox = Outbox.create ();
    ack_batches = [||];
    n_handler_faults = 0;
    clock = (fun () -> Engine.now engine);
    on_exhausted = (fun () -> count_drop drops Retransmit_exhausted);
    thunks = Engine.lane engine (fun k -> k ());
    arrivals = Engine.lane engine ignore;
    fanouts = Engine.lane engine ignore;
    endpoint_sends = Engine.lane engine ignore;
    late = (fun _ _ ?size:_ ~kind:_ _ -> ());
  }
  in
  t.late <- late_emit t;
  t.arrivals <- Engine.lane engine (arrive t);
  t.fanouts <- Engine.lane engine (arrive_all t);
  t.endpoint_sends <- Engine.lane engine (land_send t);
  (match cfg.durability with
  | None -> ()
  | Some store_cfg ->
    (* Write sizes mirror the replication accounting: dict + key + value
       (a tombstone carries a 4-byte marker). Each group-commit fsync is
       charged to the owning hive's row of the traffic matrix. *)
    let size_of (dict, key, w) =
      String.length dict + String.length key
      + match w with Some v -> Value.size v | None -> 4
    in
    let on_fsync ~hive ~bytes ~records:_ =
      ignore
        (Channels.transfer t.chans ~src:(hive_ep t hive) ~dst:(hive_ep t hive)
           ~bytes ~now:(Engine.now engine));
      List.iter (fun f -> f hive) t.fsync_hooks
    in
    (* What the hive's fsync made durable: first the acks its records'
       marks owe, then the emits to dispatch. *)
    let on_durable ~hive ~acks entries =
      send_acks t hive acks;
      outbox_now_durable t (Option.get t.store) entries
    in
    t.store <-
      Some
        (Store.create engine ~config:store_cfg ~size_of ~garble:Value.garble
           ~verify:(cfg.inject <> Some Checksums_off) ~on_fsync ~on_durable ());
    (* Background scrub: one budgeted verification slice every 5 ms.
       Detected-corrupt live bees are repaired in place; bees on crashed
       hives keep their suspect verdict for restart_hive to consult. *)
    ignore
      (Engine.every engine (Simtime.of_ms 5) (fun () ->
           scrub_slice t ~budget_bytes:scrub_budget_bytes)));
  t
