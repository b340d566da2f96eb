(** Discrete-event simulation engine.

    The engine owns the virtual clock and an event queue of thunks. All
    platform concurrency (bee mailbox processing, channel delivery, lock
    RPCs, timers) is expressed as events scheduled here, so a run is a
    single deterministic sequence of callbacks. *)

type t

type handle
(** A scheduled event, for cancellation. *)

val create : ?seed:int -> unit -> t
(** Fresh engine with clock at {!Simtime.zero}. [seed] (default 42) seeds
    the root RNG from which components {!Rng.split} their own streams.
    Sharded batches fan out over the process-wide {!Domain_pool.global}
    pool, whose width is [BEEHIVE_DOMAINS] unless
    {!Domain_pool.set_global_domains} resized it. *)

val now : t -> Simtime.t
val rng : t -> Rng.t

val domains : t -> int
(** Width of the pool sharded batches fan out over (>= 1). *)

val parallel_map : t -> shards:int -> (int -> 'a) -> 'a array
(** Deterministic fan-out over the pool — see {!Domain_pool.map}.
    Exposed so subsystems with naturally independent shards (e.g. the
    store's group-commit encode and scrub verification) can borrow the
    engine's pool without owning domains themselves. *)

val schedule_at : t -> Simtime.t -> (unit -> unit) -> handle
(** [schedule_at t at f] runs [f] when the clock reaches [at]. Scheduling
    in the past raises [Invalid_argument]. *)

val schedule_after : t -> Simtime.t -> (unit -> unit) -> handle
(** [schedule_after t d f] = [schedule_at t (now t + d)]. *)

val schedule_sharded_after : t -> Simtime.t -> shard:int -> (unit -> unit -> unit) -> handle
(** Like {!schedule_after}, but split for parallel execution: when the
    event comes due, [compute ()] may run on any pool domain —
    concurrently with other due sharded events of *different* [shard]
    ids, in scheduling order w.r.t. the same shard — and must only
    touch state owned by its shard. The [unit -> unit] thunk it
    returns (the apply phase) then runs on the main domain, serially,
    in global scheduling order, and may touch shared state freely.
    With a pool of width 1 this degenerates to
    [f () = (compute ()) ()] — the batched schedule is identical at
    every width, which is what makes [BEEHIVE_DOMAINS=1] and [=8]
    bit-identical. *)

val cancel : t -> handle -> bool
(** [cancel t h] drops the event, returning [false] if it already fired
    or was already cancelled. On an {!every} handle it stops the series
    (also from inside its own callback) and returns [true] the first
    time. *)

val every : t -> Simtime.t -> (unit -> unit) -> handle
(** [every t period f] runs [f] at [now t + period], [now t + 2 period],
    ... until cancelled. The returned handle cancels the whole series. *)

val run_until : t -> Simtime.t -> unit
(** Executes events in order until the queue is exhausted or the next event
    is strictly after the horizon; leaves the clock at the horizon. The
    loop itself allocates nothing: what a run allocates is what its
    events do. *)

val run : t -> unit
(** Executes all events until the queue is empty. *)

val events_executed : t -> int
(** Total events run since {!create}. Monotone; the rate of growth per
    unit of simulated time is the signal an event-storm monitor (e.g.
    {!Beehive_check}'s nemesis runs) watches for runaway amplification. *)

val sharded_batches : t -> int
(** Number of sharded batches executed (each batch = all sharded events
    due at one instant). Independent of pool width. *)

val sharded_events : t -> int
(** Sharded events executed across all batches;
    [sharded_events / sharded_batches] is the mean batch width — the
    available parallelism of a workload. *)
