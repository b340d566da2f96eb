module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Platform = Beehive_core.Platform
module Cell = Beehive_core.Cell

let src = Logs.Src.create "beehive.elastic" ~doc:"Beehive elastic membership"

module Log = (val Logs.src_log src : Logs.LOG)

let pump_period = Simtime.of_ms 5
let min_placeable = 2

(* The middle leg of [alive -> draining -> decommissioned]: a drain
   starts when [drain] marks the hive and completes (once) when the pump
   finds {!Platform.drain_complete}. *)
type drain = {
  d_started : Simtime.t;
  d_auto_decommission : bool;
  mutable d_completed : bool;
}

type t = {
  platform : Platform.t;
  engine : Engine.t;
  drains : (int, drain) Hashtbl.t;  (* hive -> newest drain record *)
  mutable n_joins : int;
  mutable n_drains_started : int;
  mutable n_drains_completed : int;
  mutable n_decommissions : int;
  mutable last_drain_us : int;
}

(* ------------------------------------------------------------------ *)
(* Decommission                                                        *)
(* ------------------------------------------------------------------ *)

(* Members other than [hive] that are not draining: crashed and fenced
   hives count, as they may come back. *)
let staying t hive =
  List.length
    (List.filter
       (fun h -> h <> hive && not (Platform.hive_draining t.platform h))
       (Platform.members t.platform))

let decommission t hive =
  if Platform.hive_decommissioned t.platform hive then true
  else if staying t hive < min_placeable then false
  else if Platform.decommission_hive t.platform hive then begin
    t.n_decommissions <- t.n_decommissions + 1;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* The evacuation pump                                                 *)
(* ------------------------------------------------------------------ *)

(* One evacuation step: every movable non-local bee on [hive] starts a
   live migration to the platform's least-loaded placeable hive with
   room for its cells. Busy or mid-migration bees are skipped and
   retried on the next step. *)
let evacuate t hive =
  let reason = Printf.sprintf "drain: evacuating hive %d" hive in
  List.iter
    (fun (v : Platform.bee_view) ->
      if v.Platform.view_hive = hive && (not v.Platform.view_is_local) && v.Platform.view_alive
      then
        let cells = Cell.Set.cardinal v.Platform.view_cells in
        match Platform.least_loaded_hive t.platform ~exclude:hive ~cells with
        | None -> ()
        | Some dst ->
          ignore (Platform.migrate_bee t.platform ~bee:v.Platform.view_id ~to_hive:dst ~reason))
    (Platform.live_bees t.platform)

let pump_drain t hive d =
  if not d.d_completed then begin
    (* A crashed draining hive stalls here: its crashed bees still own
       cells, so the drain resumes only after a restart revives them. *)
    if Platform.hive_alive t.platform hive then evacuate t hive;
    if Platform.drain_complete t.platform hive then begin
      d.d_completed <- true;
      t.n_drains_completed <- t.n_drains_completed + 1;
      t.last_drain_us <- Simtime.to_us (Engine.now t.engine) - Simtime.to_us d.d_started;
      Log.info (fun m -> m "hive %d drained in %d us" hive t.last_drain_us);
      if d.d_auto_decommission then ignore (decommission t hive)
    end
  end

let pump t = Hashtbl.iter (pump_drain t) t.drains

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create platform =
  let engine = Platform.engine platform in
  let t =
    {
      platform;
      engine;
      drains = Hashtbl.create 8;
      n_joins = 0;
      n_drains_started = 0;
      n_drains_completed = 0;
      n_decommissions = 0;
      last_drain_us = 0;
    }
  in
  ignore (Engine.every engine pump_period (fun () -> pump t));
  t

(* ------------------------------------------------------------------ *)
(* Join                                                                *)
(* ------------------------------------------------------------------ *)

let add_hive t =
  (* The platform does the real work: channels grow a row/column, and
     its [Added] event makes raft replication anchor a group at the new
     hive. *)
  let id = Platform.add_hive t.platform in
  t.n_joins <- t.n_joins + 1;
  id

(* ------------------------------------------------------------------ *)
(* Drain                                                               *)
(* ------------------------------------------------------------------ *)

let placeable_without t hive =
  List.length
    (List.filter
       (fun h -> h <> hive && Platform.placeable t.platform h)
       (Platform.members t.platform))

let drain t ?(auto_decommission = false) hive =
  if
    (not (Platform.hive_alive t.platform hive))
    || Platform.hive_draining t.platform hive
    || Platform.hive_decommissioned t.platform hive
    || placeable_without t hive < min_placeable
  then false
  else begin
    Platform.set_draining t.platform hive true;
    Hashtbl.replace t.drains hive
      {
        d_started = Engine.now t.engine;
        d_auto_decommission = auto_decommission;
        d_completed = false;
      };
    t.n_drains_started <- t.n_drains_started + 1;
    evacuate t hive;
    true
  end

let cancel_drain t hive =
  match Hashtbl.find_opt t.drains hive with
  | Some d when not d.d_completed ->
    Hashtbl.remove t.drains hive;
    Platform.set_draining t.platform hive false;
    true
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let drain_completed t hive =
  match Hashtbl.find_opt t.drains hive with Some d -> d.d_completed | None -> false

let auto_decommission t hive =
  match Hashtbl.find_opt t.drains hive with
  | Some d -> d.d_auto_decommission
  | None -> false

let draining t =
  Hashtbl.fold (fun hive d acc -> if d.d_completed then acc else hive :: acc) t.drains []
  |> List.sort Int.compare

let joins t = t.n_joins
let rebalance_migrations t =
  List.fold_left
    (fun n (mig : Platform.migration) ->
      if
        String.starts_with ~prefix:"drain:" mig.Platform.mig_reason
        || String.starts_with ~prefix:"scale-out:" mig.Platform.mig_reason
      then n + 1
      else n)
    0 (Platform.migrations t.platform)
let last_drain_us t = t.last_drain_us

let gauges t =
  [
    ("membership.decommissions", t.n_decommissions);
    ("membership.drains_completed", t.n_drains_completed);
    ("membership.drains_started", t.n_drains_started);
    ("membership.joins", t.n_joins);
    ("membership.last_drain_us", t.last_drain_us);
    ("membership.rebalance_migrations", rebalance_migrations t);
  ]
