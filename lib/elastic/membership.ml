module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Platform = Beehive_core.Platform

let src = Logs.Src.create "beehive.elastic" ~doc:"Beehive elastic membership"

module Log = (val Logs.src_log src : Logs.LOG)

let pump_period = Simtime.of_ms 5
let min_placeable = 2

type t = {
  platform : Platform.t;
  engine : Engine.t;
  drains : (int, Drain.t) Hashtbl.t;  (* hive -> newest drain record *)
  mutable n_joins : int;
  mutable n_drains_started : int;
  mutable n_drains_completed : int;
  mutable n_decommissions : int;
  mutable last_drain_us : int;
}

let drain_reason hive = Printf.sprintf "drain: evacuating hive %d" hive

(* ------------------------------------------------------------------ *)
(* Decommission                                                        *)
(* ------------------------------------------------------------------ *)

let decommission t hive =
  if Platform.hive_decommissioned t.platform hive then true
  else if Platform.decommission_hive t.platform hive then begin
    t.n_decommissions <- t.n_decommissions + 1;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* The evacuation pump                                                 *)
(* ------------------------------------------------------------------ *)

let pump_drain t (d : Drain.t) =
  let hive = Drain.hive d in
  if Drain.state d = Drain.Draining then begin
    (* A crashed draining hive stalls here: its crashed bees still own
       cells, so the drain resumes only after a restart revives them. *)
    if Platform.hive_alive t.platform hive then
      ignore (Rebalancer.evacuate_step t.platform ~hive ~reason:(drain_reason hive));
    if Platform.drain_complete t.platform hive then begin
      Drain.complete d ~now:(Engine.now t.engine);
      t.n_drains_completed <- t.n_drains_completed + 1;
      (match Drain.duration_us d with
      | Some us -> t.last_drain_us <- us
      | None -> ());
      Log.info (fun m ->
          m "hive %d drained in %d us" hive
            (Option.value ~default:0 (Drain.duration_us d)));
      if Drain.auto_decommission d then ignore (decommission t hive)
    end
  end

let pump t = Hashtbl.iter (fun _ d -> pump_drain t d) t.drains

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
    let d = Drain.start ~hive ~now:(Engine.now t.engine) ~auto_decommission in
    Hashtbl.replace t.drains hive d;
    t.n_drains_started <- t.n_drains_started + 1;
    ignore (Rebalancer.evacuate_step t.platform ~hive ~reason:(drain_reason hive));
    true
  end

let cancel_drain t hive =
  match Hashtbl.find_opt t.drains hive with
  | Some d when Drain.state d = Drain.Draining ->
    Hashtbl.remove t.drains hive;
    Platform.set_draining t.platform hive false;
    true
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let drain_record t hive = Hashtbl.find_opt t.drains hive

let draining t =
  Hashtbl.fold
    (fun hive d acc -> if Drain.state d = Drain.Draining then hive :: acc else acc)
    t.drains []
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
