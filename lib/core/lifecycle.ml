module Engine = Beehive_sim.Engine
module Channels = Beehive_net.Channels
module Transport = Beehive_net.Transport
module Store = Beehive_store.Store

let src = Logs.Src.create "beehive.lifecycle" ~doc:"Beehive hive lifecycle"

module Log = (val Logs.src_log src : Logs.LOG)

type hive_event =
  | Crashed
  | Restarted
  | Added
  | Draining
  | Decommissioned

open Bee

type bee = Bee.t

type t = {
  engine : Engine.t;
  chans : Channels.t;
  transport : Transport.t;
  reg : Registry.t;
  hives : Hives.t;
  bees : (int, Bee.t) Hashtbl.t;
  endpoints : (Channels.endpoint, Message.t -> unit) Hashtbl.t;
  store : (Value.t, Outbox.entry) Store.t option;
  cache : Route_plan.cache;
  dispatch : Dispatch.t;
  lost_outbox : bool;  (* the [lost-outbox] bug *)
  replay_dup : bool;  (* the [replay-dup] bug *)
  mutable hooks : (int -> hive_event -> unit) list;  (* newest first *)
}

let create engine ~chans ~transport ~reg ~hives ~bees ~endpoints ~store ~cache
    ~dispatch ~lost_outbox ~replay_dup =
  {
    engine;
    chans;
    transport;
    reg;
    hives;
    bees;
    endpoints;
    store;
    cache;
    dispatch;
    lost_outbox;
    replay_dup;
    hooks = [];
  }

let on_hive t f = t.hooks <- f :: t.hooks

(* Runs the subscribers, newest first. *)
let fire t h ev = List.iter (fun f -> f h ev) t.hooks

let check_hive t h fn =
  if not (Hives.valid t.hives h) then invalid_arg ("Platform." ^ fn ^ ": bad hive")

(* The bees satisfying [pred], in ascending id order. Bee ids are dense
   and [t.bees] never drops one. *)
let bees t pred =
  let rec collect id acc =
    if id < 0 then acc
    else
      let b = Hashtbl.find t.bees id in
      collect (id - 1) (if pred b then b :: acc else acc)
  in
  collect (Hashtbl.length t.bees - 1) []

let bees_on t h ~pred = bees t (fun b -> b.hive = h && pred b)

(* The bee is gone for good. A local bee dies with its hive (crash or
   decommission): it holds no durable state, and a new one forms when the
   hive serves the app again. Any other bee's un-acked emits die with it. *)
let kill_bee t b =
  Bee.kill t.hives b;
  Registry.unassign_bee t.reg ~bee:b.id;
  if b.is_local then
    Router.forget_local (Dispatch.router t.dispatch) ~app:b.app.App.name ~hive:b.hive
  else match t.store with Some s -> Store.forget s ~bee:b.id | None -> ()

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)
(* ------------------------------------------------------------------ *)

(* What the installed replicator (e.g. Raft) holds of this bee, if
   anything: the state and outbox a failover or peer re-seed restores. *)
let replica t (b : bee) =
  match Dispatch.replicator t.dispatch with
  | Some r when b.app.App.replicated -> r.Dispatch.recover ~bee:b.id
  | Some _ | None -> None

(* Where a bee leaving [from_hive] can fail over to: the next placeable
   hive in id order, with the replica the replicator holds.
   None when either is missing — the bee then takes the unrecoverable
   path instead of being revived on a hive that cannot host it. *)
let failover_target t (b : bee) ~from_hive =
  let n = Hives.count t.hives in
  let rec pick k =
    if k = n then None
    else if Hives.placeable t.hives ((from_hive + k) mod n) then Some ((from_hive + k) mod n)
    else pick (k + 1)
  in
  match replica t b with
  | None -> None
  | Some r -> Option.map (fun bh -> (bh, r)) (pick 1)

let failover_bee t (b : bee) ~from_hive ~to_hive r =
  Recovery.failover ~reg:t.reg ~hives:t.hives ~store:t.store b ~from_hive ~to_hive r;
  Dispatch.maybe_process t.dispatch b

(* Process death: the hive stops cold. Local bees die; every other bee
   crashes, and the hive's wipe mark voids every event its memory held.
   No recovery happens here — that is {!failover_hive}'s job, run either
   immediately (the classic {!fail_hive}) or when the failure detector
   confirms the death. *)
let crash_hive t h =
  check_hive t h "crash_hive";
  if Hives.crash t.hives h ~mark:(Engine.pushes t.engine) then begin
    Route_plan.invalidate t.cache;
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
  if Hives.alive t.hives h then begin
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
    Route_plan.invalidate t.cache;
    List.iter
      (fun (b : bee) ->
        match if b.is_local then None else failover_target t b ~from_hive:h with
        | Some (to_hive, r) -> failover_bee t b ~from_hive:h ~to_hive r
        | None -> Bee.take t.hives b Fenced)
      (bees_on t h ~pred:(fun b -> b.status = `Active))
  end

let unfence_hive t h =
  List.iter
    (fun (b : bee) -> if Bee.release t.hives b Fenced then Dispatch.maybe_process t.dispatch b)
    (bees_on t h ~pred:(fun b -> Bee.holds b Fenced))

(* A fenced hive reappeared (the suspicion was false): bring it back into
   membership and resume its bees, which drain everything the transport
   buffered toward them during the eviction. *)
let rejoin_hive t h =
  if Hives.rejoin t.hives h then begin
    Route_plan.invalidate t.cache;
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
        match Hashtbl.find_opt t.bees bee with
        | Some b
          when (not b.is_local)
               && b.status = `Active
               && Hives.alive t.hives b.hive
               && not (Bee.holds b Fenced) ->
          Store.rewrite s ~bee ~entries:(State.snapshot b.state);
          Log.info (fun m ->
              m "bee %d: corrupt storage rewritten from live state (%s)" bee detail)
        | Some _ | None -> ())
      damaged

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
    Route_plan.invalidate t.cache;
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
              let up = Recovery.revive s ~hives:t.hives ~hive:h b (replica t b) in
              if up then Dispatch.maybe_process t.dispatch b;
              up)
            crashed
        in
        List.iter
          (fun (b : bee) ->
            if t.lost_outbox then begin
              (* Injected bug [lost-outbox]: recovery "loses" the
                 outbox file, so acked-durable emits are never
                 re-sent. The exactly-once monitor must catch this. *)
              Store.drop_outbox s ~bee:b.id
            end
            else begin
              if t.replay_dup then
                (* Injected bug [replay-dup]: recovery "loses" the
                   durable dedup cutoff, so replayed entries (and
                   transport retransmissions) double-apply. *)
                Store.wipe_inbox s ~bee:b.id;
              (* Replay: every durable un-acked outbox entry is re-sent;
                 receivers that already applied it dedup and re-ack. *)
              List.iter
                (fun e -> Dispatch.dispatch_outbox_entry t.dispatch s e ~first:false)
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
  Route_plan.invalidate t.cache;
  fire t id Added;
  Log.info (fun m -> m "hive %d joined (cluster size %d)" id (id + 1));
  id

let set_draining t h flag =
  check_hive t h "set_draining";
  if Hives.decommissioned t.hives h then
    invalid_arg "Platform.set_draining: hive decommissioned";
  if Hives.set_draining t.hives h flag then begin
    Route_plan.invalidate t.cache;
    Log.info (fun m -> m "hive %d %s" h (if flag then "draining" else "drain cancelled"));
    if flag then fire t h Draining
  end

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
  if Hives.decommissioned t.hives h then true
  else if not (drain_complete t h) then false
  else begin
    List.iter (kill_bee t) (bees_on t h ~pred:(fun b -> b.is_local && b.status <> `Dead));
    Hives.decommission t.hives h;
    Route_plan.invalidate t.cache;
    Transport.close_hive t.transport h;
    Hashtbl.remove t.endpoints (Channels.Hive h);
    fire t h Decommissioned;
    Log.info (fun m ->
        m "hive %d decommissioned (cluster size %d)" h (List.length (Hives.members t.hives)));
    true
  end
