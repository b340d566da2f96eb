(* A sharded event is split into a pure compute (safe to run on any
   domain, may only touch state owned by its shard) that returns an
   apply thunk (run serially, in global seq order, may touch anything).
   Running compute-then-apply back to back is exactly a [Thunk], so a
   one-domain run and a batched N-domain run execute identical code in
   an identical order. *)
type sharded = { sh_shard : int; sh_compute : unit -> unit -> unit }

(* Every occurrence of a periodic series is queued with the same [Tick]
   value; the series' handle is its first occurrence. *)
type periodic = {
  period : Simtime.t;
  tick : unit -> unit;
  mutable current : ev Event_queue.handle option;
  mutable stopped : bool;
}

and ev = Thunk of (unit -> unit) | Sharded of sharded | Tick of periodic

type handle = ev Event_queue.handle

type t = {
  queue : ev Event_queue.t;
  mutable clock : Simtime.t;
  root_rng : Rng.t;
  mutable n_events : int;
  mutable sharded_batches : int;
  mutable sharded_events : int;
}

let create ?(seed = 42) () =
  {
    queue = Event_queue.create ();
    clock = Simtime.zero;
    root_rng = Rng.create seed;
    n_events = 0;
    sharded_batches = 0;
    sharded_events = 0;
  }

let now t = t.clock
let rng t = t.root_rng
let domains _t = Domain_pool.size (Domain_pool.global ())
let parallel_map _t ~shards f = Domain_pool.map (Domain_pool.global ()) ~shards f

let schedule_at t at f =
  if Simtime.(at < t.clock) then invalid_arg "Engine.schedule_at: in the past";
  Event_queue.push t.queue at (Thunk f)

let schedule_after t d f = schedule_at t (Simtime.add t.clock d) f

let schedule_sharded_after t d ~shard compute =
  let at = Simtime.add t.clock d in
  if Simtime.(at < t.clock) then
    invalid_arg "Engine.schedule_sharded_after: in the past";
  Event_queue.push t.queue at (Sharded { sh_shard = shard; sh_compute = compute })

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
  | Thunk _ | Sharded _ -> Event_queue.cancel t.queue h

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

(* The sharded events queued right behind the current one at the same
   instant, prepended to [acc] (so newest first). *)
let rec gather_sharded t acc =
  if Event_queue.is_empty t.queue then acc
  else if not (Simtime.equal (Event_queue.next_time t.queue) t.clock) then acc
  else
    match Event_queue.next t.queue with
    | Sharded s ->
      ignore (Event_queue.take t.queue);
      gather_sharded t (s :: acc)
    | Thunk _ | Tick _ -> acc

(* [first] plus every other sharded event due at the same instant form
   one batch: computes fan out over the domain pool keyed by shard
   (lane = shard index mod lanes, intra-shard order = seq order), then
   applies run serially in global seq order. The merge is therefore a
   pure function of (shard id, seq) and independent of the pool
   width. *)
let exec_batch t first =
  let batch = gather_sharded t [ first ] in
  let k = List.length batch in
  t.n_events <- t.n_events + k;
  t.sharded_batches <- t.sharded_batches + 1;
  t.sharded_events <- t.sharded_events + k;
  if k = 1 then (first.sh_compute ()) ()
  else begin
    let evs = Array.of_list (List.rev batch) in
    (* Group event indices by shard, shards in first-appearance order
       (deterministic: a function of the event sequence alone). *)
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    Array.iteri
      (fun i e ->
        match Hashtbl.find_opt tbl e.sh_shard with
        | Some l -> l := i :: !l
        | None ->
          Hashtbl.replace tbl e.sh_shard (ref [ i ]);
          order := e.sh_shard :: !order)
      evs;
    let shards = Array.of_list (List.rev !order) in
    let lanes =
      Array.map (fun sh -> Array.of_list (List.rev !(Hashtbl.find tbl sh))) shards
    in
    let applies = Array.make k (fun () -> ()) in
    ignore
      (Domain_pool.map (Domain_pool.global ()) ~shards:(Array.length lanes)
         (fun li ->
           Array.iter (fun i -> applies.(i) <- evs.(i).sh_compute ()) lanes.(li)));
    Array.iter (fun a -> a ()) applies
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
      | Sharded s -> exec_batch t s
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
let sharded_batches t = t.sharded_batches
let sharded_events t = t.sharded_events
