module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels
module Transport = Beehive_net.Transport
module Store = Beehive_store.Store
module Mark = Beehive_store.Mark

let src = Logs.Src.create "beehive.router" ~doc:"Beehive message routing"

module Log = (val Logs.src_log src : Logs.LOG)

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

let count_drop drops reason =
  let i = drop_slot reason in
  drops.(i) <- drops.(i) + 1

open Bee

(* What routing keeps per app: a Local leg's allowed cells, every
   dictionary's wildcard, built once; and the id of the app's local bee
   on each hive, -1 for none, grown as hives join. *)
type app_route = {
  app : App.t;
  whole_dicts : Mapping.t;
  mutable local_bees : int array;
}

(* A leg to bee [to_], with no attempt made yet. Defined here, not in
   {!Bee}, so that building each leg stays a call within this module. *)
let delivery ~to_ msg handler allowed outbox =
  {
    d_to = to_;
    d_msg = msg;
    d_handler = handler;
    d_allowed = allowed;
    d_outbox = outbox;
    d_attempts = 0;
  }

type t = {
  engine : Engine.t;
  chans : Channels.t;
  transport : Transport.t;
  reg : Registry.t;
  locks : Cell_locks.t;
  hives : Hives.t;
  store : (Value.t, Outbox.entry) Store.t option;
  outbox : Outbox.t;
  bees : (int, Bee.t) Hashtbl.t;
  apps : (string, app_route) Hashtbl.t;  (* by app name *)
  subscribers : (string, (app_route * App.handler) list) Hashtbl.t;
  cache : Route_plan.cache;
  capacity : int;
  drops : int array;  (* indexed by [drop_slot] *)
  mutable faults : int;
  mutable merges : int;
  on_exhausted : unit -> unit;  (* [transmit]'s [on_drop] when the caller gave none *)
  thunks : (unit -> unit) Engine.lane;  (* runs each value: what lands as a closure *)
  arrivals : Bee.delivery Engine.lane;
  fanouts : Bee.delivery list Engine.lane;
  new_bee : app:App.t -> hive:int -> is_local:bool -> Bee.t;
  resume : Bee.t -> unit;
}

let create engine ~chans ~transport ~reg ~locks ~hives ~store ~outbox ~bees ~cache ~capacity
    ~new_bee ~resume ~arrivals ~fanouts =
  let drops = Array.make (Array.length drop_gauges) 0 in
  {
    engine;
    chans;
    transport;
    reg;
    locks;
    hives;
    store;
    outbox;
    bees;
    apps = Hashtbl.create 8;
    subscribers = Hashtbl.create 32;
    cache;
    capacity;
    drops;
    faults = 0;
    merges = 0;
    on_exhausted = (fun () -> count_drop drops Retransmit_exhausted);
    thunks = Engine.lane engine (fun k -> k ());
    arrivals;
    fanouts;
    new_bee;
    resume;
  }

let add_app t (app : App.t) =
  let r =
    {
      app;
      whole_dicts = Mapping.whole_dicts app.App.dicts;
      local_bees = Array.make (Hives.count t.hives) (-1);
    }
  in
  Hashtbl.replace t.apps app.App.name r;
  List.iter
    (fun h ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt t.subscribers h.App.on_kind) in
      Hashtbl.replace t.subscribers h.App.on_kind (prev @ [ (r, h) ]))
    app.App.handlers;
  (* Keep subscriber lists in deterministic app-name order. *)
  Hashtbl.iter
    (fun kind subs ->
      Hashtbl.replace t.subscribers kind
        (List.stable_sort
           (fun (a, _) (b, _) -> String.compare a.app.App.name b.app.App.name)
           subs))
    t.subscribers

let drop t reason = count_drop t.drops reason
let dropped t = Array.fold_left ( + ) 0 t.drops
let drop_counts t = Array.to_list (Array.mapi (fun i g -> (g, t.drops.(i))) drop_gauges)
let fault t = t.faults <- t.faults + 1
let faults t = t.faults
let merges t = t.merges
let thunks t = t.thunks

(* [Channels.Hive h], shared: naming a hive allocates nothing. *)
let hive_ep t h = Channels.hive_endpoint t.chans h

(* Moves [bytes] from [src_ep] to hive [dst_hive] and runs [lane]'s
   callback on [v] on arrival plus [extra] (e.g. lock-service latency
   already charged). Same-hive traffic is a plain post; cross-hive
   traffic rides the at-least-once {!Transport}. [on_drop] runs if the
   message can never arrive. A same-hive delivery and the [extra] wait
   after receipt sit in [dst_hive]'s memory: the callback asks
   {!Hives.since_wipe} of the hive it lands on, so [v] carries nothing
   more. Only the reliable path and a cross-hive [extra] wait allocate a
   closure; a caller whose arrival is a closure posts it on [t.thunks]. *)
let transmit t ~src_ep ~dst_hive ~bytes ~extra ?on_drop lane v =
  let src_hive = Channels.hive_of t.chans src_ep in
  let dst_ep = hive_ep t dst_hive in
  if src_hive = dst_hive then begin
    let lat =
      Channels.transfer t.chans ~src:src_ep ~dst:dst_ep ~bytes ~now:(Engine.now t.engine)
    in
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

let safe_map t (handler : App.handler) msg =
  (* A mapper that raises is contained at the dispatch boundary: the
     message is dropped for that subscriber instead of unwinding the
     engine. *)
  try handler.App.map msg
  with exn ->
    fault t;
    Log.warn (fun m ->
        m "map for kind %s raised %s: dropping for this subscriber"
          msg.Message.kind (Printexc.to_string exn));
    Mapping.Drop

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
        (Mapping.Cells (Cell.Set.filter in_dict (Registry.bee t.reg id).Registry.bee_cells))
        Mark.none
      :: legs_on t h ~in_dict msg handler rest
    else legs_on t h ~in_dict msg handler rest

(* Sends a Cells leg to the bee routing picked, [extra] (lock-service
   time) after its transfer. *)
let send_cells t (b : Bee.t) ~extra ~handler ~src_ep ~outbox m msg =
  if Hives.crashed t.hives b.hive then drop t Dead_target
  else begin
    let d_outbox =
      if not (Mark.is_none outbox) then outbox
      else if (not b.is_local) && t.store <> None then
        (* Injected, system and local-origin messages get a virtual
           exactly-once id (sender -1): never replayed or acked, but
           the receiver's durable inbox mark closes the double-delivery
           window a transport-level dedup reset (receiver crash) opens. *)
        Mark.make ~sender:(-1) ~seq:(Outbox.next_virtual_seq t.outbox)
      else Mark.none
    in
    (* Fenced targets still receive: the transport buffers through the
       partition and the bee's paused mailbox holds the message until
       the hive rejoins, so nothing is lost to a false suspicion. *)
    transmit t ~src_ep ~dst_hive:b.hive ~bytes:msg.Message.size ~extra t.arrivals
      (delivery ~to_:b.id msg handler m d_outbox)
  end

(* Folds [losers] into [winner], then claims the mapped cells [cs] it
   does not own. The claim must wait for every loser's deferred fold-in:
   a busy loser still owns its cells until it goes idle, and assigning a
   wildcard before then would break single-ownership. Meanwhile a put
   may create an owner of some of [cs]: the claim folds such a late
   owner in first. (A dead owner, which keeps its cells, is never
   folded.) The winner stays held throughout, so the message routed to
   it queues behind the completed merge. *)
let rec merge_into t ~app winner losers cs =
  t.merges <- t.merges + List.length losers;
  Route_plan.invalidate t.cache;
  Migration.merge t.engine ~chans:t.chans ~reg:t.reg ~hives:t.hives ~store:t.store
    ~resume:t.resume ~winner ~losers ~k:(fun () ->
      let late id = id <> winner.id && (Hashtbl.find t.bees id).status <> `Dead in
      match List.filter late (Registry.owners t.reg ~app cs) with
      | [] -> Registry.assign t.reg ~bee:winner.id (Registry.unheld t.reg ~app ~bee:winner.id cs)
      | late -> merge_into t ~app winner (List.map (Hashtbl.find t.bees) late) cs)

(* Applies the {!Route_plan} for one Cells leg, mapped to [m] (a [Key]
   or a non-empty [Cells]), then sends the message to the bee it picked
   with [m] as the delivery's allowed cells. *)
let route_cells t ~(app : App.t) ~(handler : App.handler) ~src_ep ~origin ~outbox m msg =
  let name = app.App.name in
  let owner = Route_plan.owner t.reg ~app:name m in
  match
    Route_plan.decide t.reg t.hives t.cache ~capacity:t.capacity ~app:name ~origin ~owner m
  with
  | Route_plan.Create home ->
    let b = t.new_bee ~app ~hive:home ~is_local:false in
    if Hives.fenced t.hives home then
      (* A fenced hive still serves its side of a partition, but its
         new bees hold until the hive rejoins. *)
      Bee.take t.hives b Fenced;
    Registry.assign t.reg ~bee:b.id (Route_plan.cells m);
    Route_plan.invalidate t.cache;
    let extra = Cell_locks.charge_rpc t.locks ~hive:origin in
    send_cells t b ~extra ~handler ~src_ep ~outbox m msg
  | Route_plan.Use ->
    send_cells t (Hashtbl.find t.bees owner) ~extra:Simtime.zero ~handler ~src_ep ~outbox m msg
  | Route_plan.Lookup ->
    (* Remote owner: consult the (cached) lock service. *)
    let extra = Cell_locks.charge_rpc t.locks ~hive:origin in
    Route_plan.remember t.cache ~origin ~app:name m ~owner;
    send_cells t (Hashtbl.find t.bees owner) ~extra ~handler ~src_ep ~outbox m msg
  | Route_plan.Claim cells ->
    Registry.assign t.reg ~bee:owner cells;
    Route_plan.invalidate t.cache;
    let extra = Cell_locks.charge_rpc t.locks ~hive:origin in
    send_cells t (Hashtbl.find t.bees owner) ~extra ~handler ~src_ep ~outbox m msg
  | Route_plan.Merge { winner; losers } ->
    let winner = Hashtbl.find t.bees winner in
    merge_into t ~app:name winner (List.map (Hashtbl.find t.bees) losers) (Route_plan.cells m);
    let extra = Cell_locks.charge_rpc t.locks ~hive:origin in
    Route_plan.invalidate t.cache;
    send_cells t winner ~extra ~handler ~src_ep ~outbox m msg
  | Route_plan.Drop -> drop t Dead_target

let route_foreach t ~(app : App.t) ~(handler : App.handler) ~src_ep dict msg =
  let in_dict (c : Cell.t) = String.equal c.Cell.dict dict in
  let owners = Registry.owners_of_dict t.reg ~app:app.App.name ~dict in
  (* Fan out: one control-channel copy per hive hosting owners, hives in
     ascending id, then local delivery to that hive's owners in owner
     order. *)
  let h = ref (next_owner_hive t ~above:(-1) max_int owners) in
  while !h < max_int do
    let hive = !h in
    if not (Hives.crashed t.hives hive) then begin
      transmit t ~src_ep ~dst_hive:hive ~bytes:msg.Message.size ~extra:Simtime.zero t.fanouts
        (legs_on t hive ~in_dict msg handler owners)
    end;
    h := next_owner_hive t ~above:hive max_int owners
  done

(* The app's local bee on hive [h], created on first use. *)
let local_bee t r ~hive =
  if hive >= Array.length r.local_bees then begin
    let grown = Array.make (Hives.count t.hives) (-1) in
    Array.blit r.local_bees 0 grown 0 (Array.length r.local_bees);
    r.local_bees <- grown
  end;
  let id = r.local_bees.(hive) in
  if id >= 0 then Hashtbl.find t.bees id
  else begin
    let b = t.new_bee ~app:r.app ~hive ~is_local:true in
    r.local_bees.(hive) <- b.id;
    b
  end

let forget_local t ~app ~hive =
  let r = Hashtbl.find t.apps app in
  if hive < Array.length r.local_bees then r.local_bees.(hive) <- -1

let route_local t r ~(handler : App.handler) ~src_ep ~origin msg =
  let deliver_on h =
    if Hives.alive t.hives h then
      transmit t ~src_ep ~dst_hive:h ~bytes:msg.Message.size ~extra:Simtime.zero t.arrivals
        (delivery ~to_:(local_bee t r ~hive:h).id msg handler r.whole_dicts Mark.none)
  in
  (* System messages (timer ticks) trigger local handlers on every hive;
     ordinary messages only on their origin hive. *)
  match msg.Message.src with
  | Message.From_system ->
    for h = 0 to Hives.count t.hives - 1 do
      deliver_on h
    done
  | Message.From_bee _ | Message.From_endpoint _ -> deliver_on origin

let rec route_legs t ~src_ep ~origin ~outbox ~first msg legs = function
  | [] -> legs
  | (r, handler) :: rest ->
    let app = r.app in
    let legs =
      match safe_map t handler msg with
      | Mapping.Drop -> legs
      | Mapping.Cells cs when Cell.Set.is_empty cs -> legs
      | (Mapping.Key _ | Mapping.Cells _) as m ->
        route_cells t ~app ~handler ~src_ep ~origin ~outbox m msg;
        legs + 1
      | Mapping.Local ->
        if first then route_local t r ~handler ~src_ep ~origin msg;
        legs
      | Mapping.Foreach dict ->
        if first then route_foreach t ~app ~handler ~src_ep dict msg;
        legs
    in
    route_legs t ~src_ep ~origin ~outbox ~first msg legs rest

(* Maps [msg] for every subscriber and routes each leg; returns the
   number of Cells legs. An outbox replay ([first = false]) re-sends only
   the Cells legs, the ones the receivers' durable inboxes dedup. *)
let route_subscribers t ~src_ep ~origin ~outbox ~first msg =
  match Hashtbl.find t.subscribers msg.Message.kind with
  | subs -> route_legs t ~src_ep ~origin ~outbox ~first msg 0 subs
  | exception Not_found -> 0

let route t ~src_ep msg =
  let origin = Channels.hive_of t.chans src_ep in
  (* A fenced origin keeps routing (the process is still up and serves
     its partition side); only a genuinely crashed origin drops. *)
  if not (Hives.crashed t.hives origin) then
    ignore (route_subscribers t ~src_ep ~origin ~outbox:Mark.none ~first:true msg)
  else drop t Dead_origin
