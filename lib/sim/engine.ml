(* Every occurrence of a periodic series is queued with the same [Tick]
   value; the series' handle is its first occurrence. *)
type periodic = {
  period : Simtime.t;
  tick : unit -> unit;
  mutable current : ev Event_queue.handle option;
  mutable stopped : bool;
}

and ev = Thunk of (unit -> unit) | Tick of periodic

type handle = ev Event_queue.handle

type t = {
  queue : ev Event_queue.t;
  mutable clock : Simtime.t;
  root_rng : Rng.t;
  mutable n_events : int;
}

let create ?(seed = 42) () =
  {
    queue = Event_queue.create ();
    clock = Simtime.zero;
    root_rng = Rng.create seed;
    n_events = 0;
  }

let now t = t.clock
let rng t = t.root_rng

let schedule_at t at f =
  if Simtime.(at < t.clock) then invalid_arg "Engine.schedule_at: in the past";
  Event_queue.push t.queue at (Thunk f)

let schedule_after t d f = schedule_at t (Simtime.add t.clock d) f

let cancel t h =
  match Event_queue.value h with
  | Tick p ->
    if p.stopped then false
    else begin
      p.stopped <- true;
      (match p.current with
       | Some h -> ignore (Event_queue.cancel t.queue h)
       | None -> ());
      true
    end
  | Thunk _ -> Event_queue.cancel t.queue h

let every t period f =
  if Simtime.(period <= Simtime.zero) then invalid_arg "Engine.every: period must be positive";
  let p = { period; tick = f; current = None; stopped = false } in
  let h = Event_queue.push t.queue (Simtime.add t.clock period) (Tick p) in
  p.current <- Some h;
  h

(* One occurrence of a periodic series, fired at the current clock: the
   next one is queued only if the callback left the series running. *)
let fire_tick t ev p =
  p.current <- None;
  if not p.stopped then begin
    p.tick ();
    if not p.stopped then
      p.current <- Some (Event_queue.push t.queue (Simtime.add t.clock p.period) ev)
  end

(* Runs every event due at or before [horizon], reading the queue's head
   in place: the loop itself allocates nothing. *)
let rec drain t horizon =
  if not (Event_queue.is_empty t.queue) then begin
    let at = Event_queue.next_time t.queue in
    if Simtime.(at <= horizon) then begin
      t.clock <- at;
      (match Event_queue.take t.queue with
      | Thunk f ->
        t.n_events <- t.n_events + 1;
        f ()
      | Tick p as ev ->
        t.n_events <- t.n_events + 1;
        fire_tick t ev p);
      drain t horizon
    end
  end

let run_until t horizon =
  drain t horizon;
  t.clock <- Simtime.max t.clock horizon

let run t = drain t (Simtime.of_us max_int)
let events_executed t = t.n_events
