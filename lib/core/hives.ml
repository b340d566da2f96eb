(* The per-hive lifecycle table. One record per hive id, in a growable
   array: ids are never reused, so a decommissioned hive keeps its slot
   forever and nothing that indexes by hive id needs remapping. *)

type life =
  | Up
  | Fenced  (* evicted by the failure detector; the process may still run *)
  | Crashed  (* process dead until restart *)
  | Decommissioned of { was_crashed : bool }
      (* retired for good; a hive retired while crashed stays crashed *)

type hive = {
  mutable life : life;
  mutable draining : bool;
      (* accepts no new cells and no inbound migrations; survives a fence
         or crash, cleared by decommission *)
  mutable inbound : int;
      (* in-flight migrations whose destination is this hive; drain
         completion requires zero *)
  mutable inbound_cells : int;  (* their cells, as counted when each started *)
  mutable wipe_mark : int;
      (* the engine's push count at the hive's last crash: every event
         scheduled before it stood for memory the crash erased *)
}

type t = { mutable hives : hive array }

let fresh () = { life = Up; draining = false; inbound = 0; inbound_cells = 0; wipe_mark = 0 }
let create n = { hives = Array.init n (fun _ -> fresh ()) }
let count t = Array.length t.hives
let valid t h = h >= 0 && h < count t

let life t h = t.hives.(h).life
let alive t h = valid t h && (match life t h with Up -> true | _ -> false)

let crashed t h =
  valid t h
  && (match life t h with
     | Crashed | Decommissioned { was_crashed = true } -> true
     | Up | Fenced | Decommissioned _ -> false)

let fenced t h = valid t h && (match life t h with Fenced -> true | _ -> false)
let draining t h = valid t h && t.hives.(h).draining

let decommissioned t h =
  valid t h && (match life t h with Decommissioned _ -> true | _ -> false)

let placeable t h = alive t h && not t.hives.(h).draining

let state t h =
  match life t h with
  | Decommissioned _ -> `Decommissioned
  | Crashed -> `Crashed
  | Fenced -> `Fenced
  | Up -> if t.hives.(h).draining then `Draining else `Alive

let label = function
  | `Alive -> "alive"
  | `Draining -> "draining"
  | `Fenced -> "fenced"
  | `Crashed -> "crashed"
  | `Decommissioned -> "decommissioned"

let members t =
  List.filter (fun h -> not (decommissioned t h)) (List.init (count t) Fun.id)

let lowest_running t =
  let rec go h =
    if h >= count t then None
    else match life t h with Up | Fenced -> Some h | Crashed | Decommissioned _ -> go (h + 1)
  in
  go 0

let add t =
  t.hives <- Array.append t.hives [| fresh () |];
  count t - 1

let crash t h ~mark =
  match life t h with
  | Up | Fenced ->
    t.hives.(h).life <- Crashed;
    t.hives.(h).wipe_mark <- mark;
    true
  | Crashed | Decommissioned _ -> false

let evict t h =
  if alive t h then begin
    t.hives.(h).life <- Fenced;
    true
  end
  else false

let rejoin t h =
  if fenced t h then begin
    t.hives.(h).life <- Up;
    true
  end
  else false

let restart t h =
  match life t h with
  | Fenced ->
    t.hives.(h).life <- Up;
    Some false
  | Crashed ->
    t.hives.(h).life <- Up;
    Some true
  | Up | Decommissioned _ -> None

let set_draining t h flag =
  let r = t.hives.(h) in
  if r.draining = flag then false
  else begin
    r.draining <- flag;
    true
  end

let decommission t h =
  let r = t.hives.(h) in
  r.life <- Decommissioned { was_crashed = crashed t h };
  r.draining <- false

(* Whether the running event was scheduled after hive [h] last lost its
   memory: the one test of what a crash erases (DESIGN.md §12.4). *)
let since_wipe t engine h =
  Beehive_sim.Engine.seq (Beehive_sim.Engine.running engine) >= t.hives.(h).wipe_mark

let inbound t h = if valid t h then t.hives.(h).inbound else 0
let inbound_cells t h = t.hives.(h).inbound_cells

let inbound_started t h ~cells =
  let r = t.hives.(h) in
  r.inbound <- r.inbound + 1;
  r.inbound_cells <- r.inbound_cells + cells

let inbound_settled t h ~cells =
  let r = t.hives.(h) in
  r.inbound <- max 0 (r.inbound - 1);
  r.inbound_cells <- max 0 (r.inbound_cells - cells)
