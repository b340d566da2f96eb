module Simtime = Beehive_sim.Simtime

type state =
  | Draining
  | Completed

type t = {
  d_hive : int;
  d_started : Simtime.t;
  d_auto_decommission : bool;
  mutable d_state : state;
  mutable d_finished : Simtime.t option;
}

let start ~hive ~now ~auto_decommission =
  {
    d_hive = hive;
    d_started = now;
    d_auto_decommission = auto_decommission;
    d_state = Draining;
    d_finished = None;
  }

let hive t = t.d_hive
let state t = t.d_state
let auto_decommission t = t.d_auto_decommission

let complete t ~now =
  if t.d_state = Draining then begin
    t.d_state <- Completed;
    t.d_finished <- Some now
  end

let duration_us t =
  match t.d_finished with
  | Some fin -> Some (Simtime.to_us fin - Simtime.to_us t.d_started)
  | None -> None
