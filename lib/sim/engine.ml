(* An event is its callback, stored bare in the queue, and a handle is
   its push number. Every occurrence of a periodic series is queued with
   the series' one [fire] callback; the series is found from its head
   handle. *)
type handle = int

type periodic = {
  period : Simtime.t;
  tick : unit -> unit;
  mutable current : handle;  (* the occurrence queued or running last *)
  mutable stopped : bool;
}

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Simtime.t;
  root_rng : Rng.t;
  mutable n_events : int;
  series : (handle, periodic) Hashtbl.t;  (* live series, by their head *)
}

let none : handle = -1

let create ?(seed = 42) () =
  {
    queue = Event_queue.create ();
    clock = Simtime.zero;
    root_rng = Rng.create seed;
    n_events = 0;
    series = Hashtbl.create 8;
  }

let now t = t.clock
let rng t = t.root_rng
let running t = Event_queue.taken t.queue
let seq h = h
let pushes t = Event_queue.pushes t.queue

let schedule_at t at f =
  if Simtime.(at < t.clock) then invalid_arg "Engine.schedule_at: in the past";
  Event_queue.push t.queue at f

let schedule_after t d f = schedule_at t (Simtime.add t.clock d) f

let cancel t h =
  match Hashtbl.find t.series h with
  | p ->
    Hashtbl.remove t.series h;
    p.stopped <- true;
    ignore (Event_queue.cancel t.queue p.current);
    true
  | exception Not_found -> Event_queue.cancel t.queue h

(* One occurrence of a periodic series, fired at the current clock: the
   next one is queued only if the callback left the series running. *)
let fire_tick t p fire =
  p.tick ();
  if not p.stopped then p.current <- Event_queue.push t.queue (Simtime.add t.clock p.period) fire

let every t period f =
  if Simtime.(period <= Simtime.zero) then invalid_arg "Engine.every: period must be positive";
  let p = { period; tick = f; current = none; stopped = false } in
  let rec fire () = fire_tick t p fire in
  let h = Event_queue.push t.queue (Simtime.add t.clock period) fire in
  p.current <- h;
  Hashtbl.replace t.series h p;
  h

(* A lane's values wait in their own queue, ordered like the main one by
   (time, push order); every post pushes the lane's one [fire] onto the
   main queue at the same time, so the [fire]s of a lane run in the
   order of its values and each takes its own. *)
type 'a lane = { engine : t; callback : 'a -> unit; values : 'a Event_queue.t; fire : unit -> unit }

let lane t callback =
  let values = Event_queue.create () in
  { engine = t; callback; values; fire = (fun () -> callback (Event_queue.take values)) }

let post l d v =
  let t = l.engine in
  let at = Simtime.add t.clock d in
  ignore (Event_queue.push l.values at v);
  ignore (Event_queue.push t.queue at l.fire)

let callback l = l.callback

(* Runs every event due at or before [horizon], reading the queue's head
   in place: the loop itself allocates nothing. *)
let rec drain t horizon =
  if not (Event_queue.is_empty t.queue) then begin
    let at = Event_queue.next_time t.queue in
    if Simtime.(at <= horizon) then begin
      t.clock <- at;
      let f = Event_queue.take t.queue in
      t.n_events <- t.n_events + 1;
      f ();
      drain t horizon
    end
  end

let run_until t horizon =
  drain t horizon;
  t.clock <- Simtime.max t.clock horizon

let run t = drain t (Simtime.of_us max_int)
let events_executed t = t.n_events
