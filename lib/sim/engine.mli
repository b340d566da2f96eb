(** Discrete-event simulation engine.

    The engine owns the virtual clock and an event queue of callbacks.
    All platform concurrency (bee mailbox processing, channel delivery,
    lock RPCs, timers) is expressed as events scheduled here, so a run is
    a single deterministic sequence of callbacks. An event is its
    callback, stored bare in the queue's arrays, and its handle is its
    push number: once the queue has grown, scheduling, cancelling and
    running an event allocate nothing. *)

type t

type handle
(** A scheduled event, for cancellation and for {!running}: its push
    number ({!seq}), an immediate value. Every scheduling returns a
    distinct handle, so two handles are the same event exactly when they
    are physically equal ([==]). *)

val none : handle
(** A handle that no scheduling ever returns: a placeholder for a
    mutable handle field before its first event. Cancelling it returns
    [false]. *)

val create : ?seed:int -> unit -> t
(** Fresh engine with clock at {!Simtime.zero}. [seed] (default 42) seeds
    the root RNG from which components {!Rng.split} their own streams. *)

val now : t -> Simtime.t
val rng : t -> Rng.t

val schedule_at : t -> Simtime.t -> (unit -> unit) -> handle
(** [schedule_at t at f] runs [f] when the clock reaches [at]. Scheduling
    in the past raises [Invalid_argument]. Scheduling one callback value
    many times is how a caller avoids allocating a closure per event. *)

val schedule_after : t -> Simtime.t -> (unit -> unit) -> handle
(** [schedule_after t d f] = [schedule_at t (now t + d)]. *)

val cancel : t -> handle -> bool
(** [cancel t h] drops the event, returning [false] if it already fired
    or was already cancelled. On an {!every} handle it stops the series
    (also from inside its own callback) and returns [true] the first
    time. It costs O(events in flight): the queue scans for the event
    and deletes it ({!Event_queue.cancel}). *)

val every : t -> Simtime.t -> (unit -> unit) -> handle
(** [every t period f] runs [f] at [now t + period], [now t + 2 period],
    ... until cancelled. The returned handle is the first occurrence's,
    and cancels the whole series at any later occurrence too. *)

val running : t -> handle
(** The event whose callback is running now; between events, the last
    one run ({!none} before the first). A callback scheduled many times
    compares it with the handle it kept from its latest scheduling to
    tell its current occurrence from a stale one. *)

val seq : handle -> int
(** The event's push number: events scheduled later have larger ones,
    and {!none}'s is -1. *)

val pushes : t -> int
(** How many events were scheduled so far: every event scheduled from
    now on has a {!seq} at least this. A caller that keeps it can later
    tell whether the {!running} event was scheduled before or after. *)

(** {2 Lanes}

    A lane carries values of one type to one callback, at scheduled
    times, without a closure per event: the value waits in the lane's
    own queue and the main queue holds the lane's one preallocated
    [fire] callback, which takes the value due.

    The contract:
    - [post l d v] pushes [v] onto [l]'s queue and [fire] onto the main
      queue at once, both at [now + d]. Both queues order by (time,
      push order), so the [fire] that runs takes exactly the value
      posted with it.
    - A post is one main-queue event: it takes the push number, the
      {!running} handle and the {!pushes} and {!events_executed} steps
      that [schedule_after t d (fun () -> callback v)] would have
      taken, so code that compares push numbers (a crash's wipe mark,
      a stale completion) sees no difference.
    - A posted event cannot be cancelled: [post] returns no handle.
    - Once the lane's and the main queue's arrays have grown, a post
      allocates nothing. *)

type 'a lane

val lane : t -> ('a -> unit) -> 'a lane
(** [lane t f] is a lane of [t] that runs [f v] for each value [v]
    posted on it. *)

val post : 'a lane -> Simtime.t -> 'a -> unit
(** [post l d v] runs [l]'s callback on [v] after [d]. *)

val callback : 'a lane -> 'a -> unit
(** The lane's callback, for a caller that delivers a value at once or
    from an event of its own (for instance a retransmitting sender
    whose copy landed). *)

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

