module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Channels = Beehive_net.Channels
module Store = Beehive_store.Store
module Mark = Beehive_store.Mark

let src = Logs.Src.create "beehive.dispatch" ~doc:"Beehive handler dispatch"

module Log = (val Logs.src_log src : Logs.LOG)

type commit_info = {
  ci_bee : int;
  ci_hive : int;
  ci_writes : (string * string * Value.t option) list;
  ci_emits : (int * Message.t) list;
  ci_inbox : Mark.t list;
}

type replicator = {
  commit : commit_info -> unit;
  acked : bee:int -> seq:int -> unit;
  recover : bee:int -> Recovery.replica option;
}

type Message.payload += Idle

(* What an idle bee's [handling] and its mailbox's empty slots hold. *)
let idle : Bee.delivery =
  let msg =
    { Message.msg_id = 0; kind = ""; payload = Idle; size = 0; src = Message.From_system;
      sent_at = Simtime.zero }
  in
  {
    Bee.d_to = -1;
    d_msg = msg;
    d_handler = App.handler ~kind:"" ~map:(fun _ -> Mapping.Drop) (fun _ _ -> ());
    d_allowed = Mapping.Drop;
    d_outbox = Mark.none;
    d_attempts = 0;
  }

open Bee

type bee = Bee.t

type t = {
  engine : Engine.t;
  chans : Channels.t;
  reg : Registry.t;
  hives : Hives.t;
  router : Router.t;
  store : (Value.t, Outbox.entry) Store.t option;
  outbox : Outbox.t;
  bees : (int, Bee.t) Hashtbl.t;
  endpoints : (Channels.endpoint, Message.t -> unit) Hashtbl.t;
  forwarding : bool;  (* false under the [forwarding] bug *)
  dedup : bool;  (* false under the [dedup-off] bug *)
  late : Context.late;  (* emits and sends made after a handler returned *)
  clock : unit -> Simtime.t;  (* every handler context's [now] *)
  endpoint_sends : (Channels.endpoint * Message.t) Engine.lane;  (* a bee's send *)
  ack_batches : int array Engine.lane;
      (* one hive's acks to another: [(receiver bee, mark)] pairs, oldest
         first *)
  rechecks : Outbox.entry Engine.lane;  (* an entry at its backoff horizon *)
  latency : Stats.latency;  (* every handled message's, merged-away bees' too *)
  mutable processed : int;
  mutable replicator : replicator option;
  mutable emit_hooks :
    (parent:Message.t option -> child:Message.t -> emitter:Message.source -> unit) list;
      (* emitter = the child's own [src] *)
  mutable fsync_hooks : (int -> unit) list;
      (* run after each per-hive group commit becomes durable *)
  mutable ack_dsts : int array;
      (* [send_acks]' scratch: its [i]th ack's destination hive, -1 when
         the sender is unknown *)
  mutable ack_counts : int array;
      (* [send_acks]' scratch, by hive id: acks bound there; all 0
         between calls *)
  dup_ack : Mark.Acks.t;  (* the one ack a duplicate's re-ack sends *)
}

(* [t.endpoint_sends]' callback. An endpoint removed while the send was
   on the wire (a decommissioned hive's) counts the send as dropped. *)
let land_send router endpoints (ep, (m : Message.t)) =
  match Hashtbl.find endpoints ep with
  | cb -> (
    try cb m
    with exn ->
      Router.fault router;
      Log.warn (fun f ->
          f "endpoint callback for %s raised %s" m.Message.kind (Printexc.to_string exn)))
  | exception Not_found -> Router.drop router Router.Missing_endpoint

let create engine ~chans ~reg ~hives ~router ~store ~outbox ~bees ~endpoints ~forwarding ~dedup
    ~late ~ack_batches ~rechecks =
  {
    engine;
    chans;
    reg;
    hives;
    router;
    store;
    outbox;
    bees;
    endpoints;
    forwarding;
    dedup;
    late;
    clock = (fun () -> Engine.now engine);
    endpoint_sends = Engine.lane engine (land_send router endpoints);
    ack_batches;
    rechecks;
    latency = Stats.latency ();
    processed = 0;
    replicator = None;
    emit_hooks = [];
    fsync_hooks = [];
    ack_dsts = [||];
    ack_counts = [||];
    dup_ack = Mark.Acks.create ();
  }

let now t = Engine.now t.engine
let since_wipe t h = Hives.since_wipe t.hives t.engine h

(* [Channels.Hive h], shared: naming a hive allocates nothing. *)
let hive_ep t h = Channels.hive_endpoint t.chans h

(* ------------------------------------------------------------------ *)
(* The outbox ack path                                                 *)
(* ------------------------------------------------------------------ *)

(* What the bee's durable inbox holds of the delivery's mark: one store
   lookup decides both whether to suppress it and whether to re-ack. *)
let inbox_mark t (b : bee) (d : Bee.delivery) =
  match t.store with
  | Some s when t.dedup && not b.is_local -> Store.inbox_mark s ~bee:b.id d.d_outbox
  | Some _ | None -> Store.Unseen

(* Entries exist only on a durable platform, in its store's outbox. *)
let retire_outbox_entry t s e =
  let bee = Outbox.sender e and seq = Outbox.seq e in
  Store.ack_outbox s ~bee ~seq;
  match t.replicator with Some r -> r.acked ~bee ~seq | None -> ()

let handle_outbox_ack t s ~receiver mark =
  let sender = Mark.sender mark in
  match Store.outbox_entry s ~bee:sender ~seq:(Mark.seq mark) with
  | exception Not_found -> ()  (* already retired; late duplicate ack *)
  | e -> (
    match Hashtbl.find t.bees sender with
    | sb when Hives.crashed t.hives sb.hive || sb.status = `Crashed || not (since_wipe t sb.hive) ->
      (* The sender's process is down, or crashed since the ack was
         queued toward it: nothing can write its WAL, so the ack is
         dropped. Replay after restart re-delivers, the receiver dedups
         and re-acks. *)
      ()
    | _ | (exception Not_found) -> if Outbox.ack e ~receiver then retire_outbox_entry t s e)

(* [t.ack_batches]' callback: one hive's batch of acks has landed, and
   each is handled in the order the receivers' fsyncs handed it over.
   Acks exist only on a durable platform. *)
let acks_landed t batch =
  let s = Option.get t.store in
  for i = 0 to (Array.length batch / 2) - 1 do
    handle_outbox_ack t s ~receiver:batch.(2 * i) (Mark.of_int batch.((2 * i) + 1))
  done

(* Counts one more ack bound for hive [dst]. *)
let count_ack t dst =
  let n = Array.length t.ack_counts in
  if dst >= n then begin
    let grown = Array.make (max (dst + 1) (2 * n)) 0 in
    Array.blit t.ack_counts 0 grown 0 n;
    t.ack_counts <- grown
  end;
  t.ack_counts.(dst) <- t.ack_counts.(dst) + 1

(* The [count] acks bound for [dst], as one batch: the [(receiver,
   mark)] pairs in their order in [acks]. *)
let ack_batch t acks ~dst ~count =
  let batch = Array.make (2 * count) 0 in
  let k = ref 0 in
  for i = 0 to Mark.Acks.length acks - 1 do
    if t.ack_dsts.(i) = dst then begin
      batch.(!k) <- Mark.Acks.receiver acks i;
      batch.(!k + 1) <- (Mark.Acks.mark acks i :> int);
      k := !k + 2
    end
  done;
  batch

(* Receiver-side half of the ack path, run at each hive fsync with the
   acks the store handed over: the marks that fsync made durable. Each
   is sent to its sender's current hive. Acks bound for the same hive
   ride one transport message, one int array of pairs, sent in hive
   order — per-message acks would double the fabric's message count on
   the healthy path. *)
let send_acks t hive acks =
  let n = Mark.Acks.length acks in
  if Array.length t.ack_dsts < n then t.ack_dsts <- Array.make (max n (2 * Array.length t.ack_dsts)) 0;
  let last = ref (-1) in
  for i = 0 to n - 1 do
    match Hashtbl.find t.bees (Mark.sender (Mark.Acks.mark acks i)) with
    | sb ->
      let dst = sb.hive in
      t.ack_dsts.(i) <- dst;
      count_ack t dst;
      if dst > !last then last := dst
    | exception Not_found -> t.ack_dsts.(i) <- -1
  done;
  for dst = 0 to !last do
    let count = t.ack_counts.(dst) in
    if count > 0 then begin
      t.ack_counts.(dst) <- 0;
      Router.transmit t.router ~src_ep:(hive_ep t hive) ~dst_hive:dst ~bytes:(16 * count)
        ~extra:Simtime.zero t.ack_batches (ack_batch t acks ~dst ~count)
    end
  done

(* Re-acks a duplicate whose mark is durable: the sender evidently lost
   the first ack. A pending mark is not re-acked; the store hands its
   ack over when this hive's fsync commits it. *)
let ack_duplicate t (b : bee) (d : Bee.delivery) =
  if Mark.acked d.d_outbox then begin
    Mark.Acks.clear t.dup_ack;
    Mark.Acks.push t.dup_ack ~receiver:b.id d.d_outbox;
    send_acks t b.hive t.dup_ack
  end

(* ------------------------------------------------------------------ *)
(* Handler execution helpers                                           *)
(* ------------------------------------------------------------------ *)

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

let rec call_emit_hooks ~parent ~(child : Message.t) = function
  | [] -> ()
  | f :: rest ->
    f ~parent ~child ~emitter:child.Message.src;
    call_emit_hooks ~parent ~child rest

let observe t ~parent child = call_emit_hooks ~parent ~child t.emit_hooks

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
         && (pending <> [] || emits <> [] || not (Mark.is_none consumed)) ->
    r.commit
      { ci_bee = b.id; ci_hive = b.hive; ci_writes = pending;
        ci_emits = numbered ~seq:last [] emits;
        ci_inbox = (if Mark.is_none consumed then [] else [ consumed ]) }
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
  else Router.drop t.router Router.Missing_endpoint

let rec deliver_sends t b = function
  | [] -> ()
  | send :: older ->
    deliver_sends t b older;
    deliver_endpoint t b send

let rec route_emits t ~src_ep = function
  | [] -> ()
  | m :: older ->
    route_emits t ~src_ep older;
    Router.route t.router ~src_ep m

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
    Store.append s ~bee:b.id ~hive:b.hive ~outbox:[] ~inbox:[] ~consumed:d.d_outbox []
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* The life of a message past routing: mailbox, handler, commit, emits *)
(* ------------------------------------------------------------------ *)

(* One handler execution: [open_context] reopens the bee's transaction
   and [run_handler] runs the handler body against it; [complete] then
   commits, routes, appends to the WAL, runs hooks or retries and
   quarantines, and frees the bee for its next message. *)
let open_context t (b : bee) (d : Bee.delivery) =
  let msg = d.d_msg in
  if d.d_attempts = 0 then begin
    let src_hive =
      (* The hive the message came from; -1 for a system message. *)
      match msg.Message.src with
      | Message.From_bee { hive; _ } -> hive
      | Message.From_endpoint ep -> Channels.hive_of t.chans ep
      | Message.From_system -> -1
    in
    Stats.record_in b.stats ~src_hive;
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
  Context.make (env_of b) ~state:b.state ~read_shadow ~allowed:d.d_allowed ~message:msg

let run_handler (d : Bee.delivery) ctx =
  let failure =
    match d.d_handler.App.rcv ctx d.d_msg with () -> None | exception exn -> Some exn
  in
  Context.close ctx;
  failure

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
          Router.fault t.router;
          App.default_cost
      in
      b.handling <- d;
      b.handling_cost <- cost;
      b.handling_event <- Engine.schedule_after t.engine cost b.completion
  end

let complete t (b : bee) (d : Bee.delivery) cost ctx failure =
  let msg = d.d_msg in
  let tx = Context.tx ctx in
  t.processed <- t.processed + 1;
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
      Store.append s ~bee:b.id ~hive:b.hive ~outbox:rows ~inbox:[] ~consumed:d.d_outbox
        pending;
      deliver_sends t b sends;
      replicate t b ~pending ~last emits ~consumed:d.d_outbox
    | Some _ | None ->
      (* Untracked emits (no store, or a local bee) dispatch at commit
         time. *)
      if emits <> [] then route_emits t ~src_ep:(hive_ep t b.hive) emits;
      deliver_sends t b sends;
      replicate t b ~pending ~last:0 [] ~consumed:Mark.none)
  | Some exn ->
    (* Handler failure containment: the state delta and every buffered
       emit are discarded atomically, then the delivery is retried with
       backoff until the budget runs out and the message is quarantined. *)
    ignore (State.rollback tx);
    Router.fault t.router;
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

(* The bee's [completion] callback. Only the event scheduled for the
   delivery in hand runs its handler: a completion left queued when the
   bee's life ended finds [Engine.none] in [handling_event], or the event
   of the next dispatch. *)
let run_completion t (b : bee) =
  if Engine.running t.engine == b.handling_event then begin
    let d = b.handling in
    b.handling <- idle;
    let ctx = open_context t b d in
    complete t b d b.handling_cost ctx (run_handler d ctx)
  end

(* Messages in flight to a bee that has since been merged away follow
   its forwarding pointer to the surviving bee. *)
let rec forwarded t (b : bee) =
  match (b.status, b.forwarded_to) with
  | `Dead, Some w when t.forwarding -> forwarded t w
  | _ -> b

(* A delivery lands in the memory of [b]'s hive, so one scheduled before
   that hive last crashed was erased with it. *)
let enqueue t (b : bee) d =
  let b = forwarded t b in
  match b.status with
  | `Active when since_wipe t b.hive ->
    Mailbox.push d b.mailbox;
    maybe_process t b
  | `Active | `Dead | `Crashed -> Router.drop t.router Router.Dead_target

let arrive t (d : Bee.delivery) = enqueue t (Hashtbl.find t.bees d.d_to) d

let rec arrive_all t = function
  | [] -> ()
  | d :: rest ->
    arrive t d;
    arrive_all t rest

(* Bee ids are dense and [t.bees] never drops one, so the next id is the
   table's size. *)
let new_bee t ~(app : App.t) ~hive ~is_local =
  let id = Hashtbl.length t.bees in
  let env =
    Context.env ~src:(bee_source ~id ~hive app) ~now:t.clock
      ~rng:(Rng.split (Engine.rng t.engine)) ~late:t.late
  in
  let b = Bee.create ~id ~app ~hive ~is_local ~env ~idle in
  b.completion <- (fun () -> run_completion t b);
  Hashtbl.add t.bees id b;
  ignore (Registry.register_bee t.reg ~bee_id:id ~app:app.App.name ~hive);
  b

(* The late sink: an emit or send made after its handler returned is
   built at the bee's current hive, reported to the emit hooks and
   dispatched at once. *)
let late_emit t ctx ep ?size ~kind payload =
  let b = Hashtbl.find t.bees (Context.bee_id ctx) in
  let m = Message.make ?size ~kind ~src:(Context.source (env_of b)) ~sent_at:(now t) payload in
  call_emit_hooks ~parent:(Some (Context.message ctx)) ~child:m t.emit_hooks;
  match ep with
  | None -> Router.route t.router ~src_ep:(hive_ep t b.hive) m
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
    when (not (Hives.crashed t.hives b.hive))
         && (match b.status with
            | `Active -> true
            | `Dead -> b.forwarded_to <> None  (* merged away, entries live on *)
            | `Crashed -> false)
    ->
    Outbox.start_attempt e ~now:(now t);
    arm_outbox_recheck t e;
    let legs =
      Router.route_subscribers t.router ~src_ep:(hive_ep t b.hive) ~origin:b.hive
        ~outbox:(Outbox.mark e) ~first (Outbox.msg e)
    in
    if Outbox.set_required e legs then retire_outbox_entry t s e
  | _ | (exception Not_found) ->
    (* Sender down. A crashed hive's entries are replayed by restart_hive;
       a merely-fenced sender needs the recheck chain kept alive so the
       replay resumes by itself once the fence lifts. *)
    if Outbox.attempted e then arm_outbox_recheck t e

(* One recheck per dispatched entry, posted on [t.rechecks] at that
   attempt's backoff horizon, instead of a per-tick scan of every
   un-acked entry (the scan made the healthy path pay for the fault
   path). Kept through the sender's crash: restart replays every entry,
   a new attempt, so the recheck is no longer fresh. *)
and arm_outbox_recheck t e =
  Outbox.arm_recheck e;
  Engine.post t.rechecks (Outbox.backoff e) e

(* [t.rechecks]' callback. The recheck re-dispatches only if no newer
   attempt superseded the one that armed it and the store's outbox still
   holds this very entry. Only a durable entry is ever dispatched, and
   no entry returns to a pending record, so one that is still there is
   still durable. *)
let recheck t e =
  let fresh = Outbox.take_recheck e and s = Option.get t.store in
  match Store.outbox_entry s ~bee:(Outbox.sender e) ~seq:(Outbox.seq e) with
  | current -> if Outbox.still_due e ~current ~fresh then dispatch_outbox_entry t s e ~first:false
  | exception Not_found -> ()

(* These entries, given oldest first, just became durable together with
   their transaction's state delta — the earliest instant the platform
   may hand them to transport. They are dispatched in that order. *)
let outbox_now_durable t s rows =
  for i = 0 to Store.Rows.length rows - 1 do
    dispatch_outbox_entry t s (Store.Rows.get rows i) ~first:true
  done

(* ------------------------------------------------------------------ *)
(* The store's fsync report                                            *)
(* ------------------------------------------------------------------ *)

(* Each group-commit fsync is charged to the owning hive's row of the
   traffic matrix. *)
let rec run_fsync_hooks hive = function
  | [] -> ()
  | f :: rest ->
    f hive;
    run_fsync_hooks hive rest

let fsynced t ~hive ~bytes =
  ignore (Channels.transfer t.chans ~src:(hive_ep t hive) ~dst:(hive_ep t hive) ~bytes ~now:(now t));
  run_fsync_hooks hive t.fsync_hooks

(* What the hive's fsync made durable: first the acks its records' marks
   owe, then the emits to dispatch. *)
let durable t ~hive ~acks entries =
  send_acks t hive acks;
  outbox_now_durable t (Option.get t.store) entries

let router t = t.router
let store t = t.store
let processed t = t.processed
let latency_percentile t p = Stats.latency_percentile t.latency p
let replicator t = t.replicator

let set_replicator t r =
  if Option.is_some t.replicator then invalid_arg "Platform.set_replicator: already set";
  t.replicator <- Some r

let on_emit t f = t.emit_hooks <- f :: t.emit_hooks
let on_fsync t f = t.fsync_hooks <- f :: t.fsync_hooks
