type handle =
  | Once of Event_queue.handle
  | Periodic of periodic

and periodic = {
  mutable current : Event_queue.handle option;
  mutable stopped : bool;
}

(* A sharded event is split into a pure compute (safe to run on any
   domain, may only touch state owned by its shard) that returns an
   apply thunk (run serially, in global seq order, may touch anything).
   Running compute-then-apply back to back is exactly a [Thunk], so a
   one-domain run and a batched N-domain run execute identical code in
   an identical order. *)
type sharded = { sh_shard : int; sh_compute : unit -> unit -> unit }
type ev = Thunk of (unit -> unit) | Sharded of sharded

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
  Once (Event_queue.push t.queue at (Thunk f))

let schedule_after t d f = schedule_at t (Simtime.add t.clock d) f

let schedule_sharded_after t d ~shard compute =
  let at = Simtime.add t.clock d in
  if Simtime.(at < t.clock) then
    invalid_arg "Engine.schedule_sharded_after: in the past";
  Once (Event_queue.push t.queue at (Sharded { sh_shard = shard; sh_compute = compute }))

let cancel t = function
  | Once h -> Event_queue.cancel t.queue h
  | Periodic p ->
    if p.stopped then false
    else begin
      p.stopped <- true;
      (match p.current with
       | Some h -> ignore (Event_queue.cancel t.queue h)
       | None -> ());
      true
    end

let every t period f =
  if Simtime.(period <= Simtime.zero) then invalid_arg "Engine.every: period must be positive";
  let start = Simtime.add t.clock period in
  let p = { current = None; stopped = false } in
  let rec fire at () =
    p.current <- None;
    if not p.stopped then begin
      f ();
      if not p.stopped then
        let next = Simtime.add at period in
        p.current <- Some (Event_queue.push t.queue next (Thunk (fire next)))
    end
  in
  p.current <- Some (Event_queue.push t.queue start (Thunk (fire start)));
  Periodic p

(* [first] plus every other sharded event due at the same instant form
   one batch: computes fan out over the domain pool keyed by shard
   (lane = shard index mod lanes, intra-shard order = seq order), then
   applies run serially in global seq order. The merge is therefore a
   pure function of (shard id, seq) and independent of the pool
   width. *)
let exec_batch t first =
  let batch = ref [ first ] in
  let n = ref 1 in
  let continue = ref true in
  while !continue do
    match Event_queue.peek t.queue with
    | Some (at', Sharded s') when Simtime.compare at' t.clock = 0 ->
      ignore (Event_queue.pop t.queue);
      batch := s' :: !batch;
      incr n
    | _ -> continue := false
  done;
  t.n_events <- t.n_events + !n;
  t.sharded_batches <- t.sharded_batches + 1;
  t.sharded_events <- t.sharded_events + !n;
  let evs = Array.of_list (List.rev !batch) in
  let k = Array.length evs in
  if k = 1 then (evs.(0).sh_compute ()) ()
  else begin
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

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (at, Thunk f) ->
    t.clock <- at;
    t.n_events <- t.n_events + 1;
    f ();
    true
  | Some (at, Sharded s) ->
    t.clock <- at;
    exec_batch t s;
    true

let run_until t horizon =
  let continue = ref true in
  while !continue do
    match Event_queue.peek_time t.queue with
    | Some at when Simtime.(at <= horizon) -> ignore (step t)
    | Some _ | None -> continue := false
  done;
  t.clock <- Simtime.max t.clock horizon

let run t = while step t do () done
let events_executed t = t.n_events
let sharded_batches t = t.sharded_batches
let sharded_events t = t.sharded_events
