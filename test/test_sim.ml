(* Simulation kernel: time arithmetic, RNG, event queue, engine. *)

module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Event_queue = Beehive_sim.Event_queue
module Engine = Beehive_sim.Engine

let test_simtime_arith () =
  Alcotest.(check int) "of_ms" 2_000 (Simtime.to_us (Simtime.of_ms 2));
  Alcotest.(check int) "of_sec" 1_500_000 (Simtime.to_us (Simtime.of_sec 1.5));
  Alcotest.(check int) "add" 30 (Simtime.to_us (Simtime.add (Simtime.of_us 10) (Simtime.of_us 20)));
  Alcotest.(check int) "diff" 10 (Simtime.to_us (Simtime.diff (Simtime.of_us 30) (Simtime.of_us 20)));
  Alcotest.check_raises "negative" (Invalid_argument "Simtime.of_us: negative") (fun () ->
      ignore (Simtime.of_us (-1)));
  Alcotest.check_raises "diff negative" (Invalid_argument "Simtime.diff: negative result")
    (fun () -> ignore (Simtime.diff (Simtime.of_us 1) (Simtime.of_us 2)))

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let c = Rng.split a in
  (* Draws from the split stream must not equal the parent's next draws
     systematically. *)
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 10_000 do
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of bounds: %f" f
  done

(* Drains the queue, oldest first, as (time in us, value) pairs. *)
let drain_queue q =
  let rec go acc =
    if Event_queue.is_empty q then List.rev acc
    else begin
      let at = Simtime.to_us (Event_queue.next_time q) in
      let v = Event_queue.take q in
      go ((at, v) :: acc)
    end
  in
  go []

let test_event_queue_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.push q (Simtime.of_us 30) "c");
  ignore (Event_queue.push q (Simtime.of_us 10) "a");
  ignore (Event_queue.push q (Simtime.of_us 20) "b");
  Alcotest.(check (list (pair int string)))
    "sorted" [ (10, "a"); (20, "b"); (30, "c") ] (drain_queue q)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    ignore (Event_queue.push q (Simtime.of_us 5) i)
  done;
  let order = List.map snd (drain_queue q) in
  Alcotest.(check (list int)) "insertion order at equal time" (List.init 10 Fun.id) order

let test_event_queue_cancel () =
  let q = Event_queue.create () in
  let h1 = Event_queue.push q (Simtime.of_us 1) "a" in
  let _h2 = Event_queue.push q (Simtime.of_us 2) "b" in
  Alcotest.(check bool) "cancel ok" true (Event_queue.cancel q h1);
  Alcotest.(check bool) "double cancel" false (Event_queue.cancel q h1);
  Alcotest.(check int) "next_time skips cancelled" 2
    (Simtime.to_us (Event_queue.next_time q));
  Alcotest.(check string) "take skips cancelled" "b" (Event_queue.take q);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

(* A handle whose event already fired must not cancel anything: the
   queue's live count stays right, and so does the engine's answer. *)
let test_cancel_after_fire () =
  let q = Event_queue.create () in
  let h1 = Event_queue.push q (Simtime.of_us 1) "a" in
  ignore (Event_queue.push q (Simtime.of_us 2) "b");
  Alcotest.(check string) "first fires" "a" (Event_queue.take q);
  Alcotest.(check bool) "cancel of a fired event" false (Event_queue.cancel q h1);
  Alcotest.(check bool) "second still queued" false (Event_queue.is_empty q);
  Alcotest.(check (list (pair int string))) "second still fires" [ (2, "b") ] (drain_queue q);
  let e = Engine.create () in
  let fired = ref 0 in
  let h = Engine.schedule_at e (Simtime.of_us 10) (fun () -> incr fired) in
  Engine.run_until e (Simtime.of_us 20);
  Alcotest.(check int) "engine event fired" 1 !fired;
  Alcotest.(check bool) "engine cancel after fire" false (Engine.cancel e h);
  (* A timer cancelled from inside its own callback, as Raft's election
     timer is: the fired handle must not eat a live event's count. *)
  let self = ref None and later = ref false in
  self :=
    Some
      (Engine.schedule_at e (Simtime.of_us 30) (fun () ->
           Alcotest.(check bool) "self-cancel" false (Engine.cancel e (Option.get !self))));
  ignore (Engine.schedule_at e (Simtime.of_us 40) (fun () -> later := true));
  Engine.run e;
  Alcotest.(check bool) "event behind a self-cancel fires" true !later

let prop_heap_sorted =
  QCheck.Test.make ~name:"event_queue pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.push q (Simtime.of_us t) t)) times;
      let popped = drain_queue q in
      List.length popped = List.length times
      && List.for_all (fun (at, v) -> at = v) popped
      && fst
           (List.fold_left
              (fun (ok, last) (at, _) -> (ok && at >= last, at))
              (true, 0) popped))

let test_engine_run_until () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_at e (Simtime.of_us 10) (fun () -> log := 10 :: !log));
  ignore (Engine.schedule_at e (Simtime.of_us 30) (fun () -> log := 30 :: !log));
  Engine.run_until e (Simtime.of_us 20);
  Alcotest.(check (list int)) "only first fired" [ 10 ] !log;
  Alcotest.(check int) "clock at horizon" 20 (Simtime.to_us (Engine.now e));
  Engine.run_until e (Simtime.of_us 40);
  Alcotest.(check (list int)) "second fired" [ 30; 10 ] !log

let test_engine_periodic () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = Engine.every e (Simtime.of_us 10) (fun () -> incr count) in
  Engine.run_until e (Simtime.of_us 55);
  Alcotest.(check int) "5 ticks" 5 !count;
  ignore (Engine.cancel e h);
  Engine.run_until e (Simtime.of_us 200);
  Alcotest.(check int) "no ticks after cancel" 5 !count

let test_engine_cancel_inside_tick () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = ref None in
  h :=
    Some
      (Engine.every e (Simtime.of_us 10) (fun () ->
           incr count;
           if !count = 3 then ignore (Engine.cancel e (Option.get !h))));
  Engine.run_until e (Simtime.of_us 1000);
  Alcotest.(check int) "self-cancel stops series" 3 !count

let test_engine_past_raises () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e (Simtime.of_us 50) (fun () -> ()));
  Engine.run_until e (Simtime.of_us 100);
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: in the past")
    (fun () -> ignore (Engine.schedule_at e (Simtime.of_us 10) (fun () -> ())))

(* The event loop reads the queue's head in place: running pre-scheduled
   events allocates nothing beyond what the events themselves do. *)
let test_engine_loop_allocates_nothing () =
  let e = Engine.create () in
  let noop () = () in
  for i = 1 to 10_000 do
    ignore (Engine.schedule_at e (Simtime.of_us i) noop)
  done;
  let horizon = Simtime.of_us 20_000 in
  let before = Gc.minor_words () in
  Engine.run_until e horizon;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "events run" 10_000 (Engine.events_executed e);
  Alcotest.(check (float 0.)) "words allocated running 10,000 events" 0. words

(* An event is its callback in the queue's arrays and its handle its
   push number: with the arrays already grown, scheduling a
   preallocated callback allocates nothing. A series is still stopped
   from its head handle after several occurrences, each a new push. *)
let test_engine_schedule_words () =
  let e = Engine.create () in
  let noop () = () in
  for i = 1 to 10_000 do
    ignore (Engine.schedule_at e (Simtime.of_us i) noop)
  done;
  Engine.run e;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Engine.schedule_after e (Simtime.of_us 1) noop)
  done;
  let per_event = (Gc.minor_words () -. before) /. 10_000. in
  if per_event > 0. then Alcotest.failf "%.4f words per scheduled event, bound 0" per_event;
  Engine.run e;
  let count = ref 0 in
  let h = Engine.every e (Simtime.of_us 10) (fun () -> incr count) in
  Engine.run_until e (Simtime.add (Engine.now e) (Simtime.of_us 45));
  Alcotest.(check int) "occurrences before the cancel" 4 !count;
  Alcotest.(check bool) "the head handle stops the series" true (Engine.cancel e h);
  Alcotest.(check bool) "once" false (Engine.cancel e h);
  Engine.run e;
  Alcotest.(check int) "no occurrence after the cancel" 4 !count

let test_event_queue_compaction () =
  let q = Event_queue.create () in
  let handles =
    Array.init 1024 (fun i -> Event_queue.push q (Simtime.of_us i) i)
  in
  (* Cancel two of every three events: once tombstones outnumber live
     entries the heap must compact in place. *)
  for i = 0 to 1023 do
    if i mod 3 <> 0 then ignore (Event_queue.cancel q handles.(i))
  done;
  Alcotest.(check bool) "live events remain" false (Event_queue.is_empty q);
  Alcotest.(check bool)
    (Printf.sprintf "physical size %d shrank below 1024"
       (Event_queue.physical_size q))
    true
    (Event_queue.physical_size q < 1024);
  (* Pop order of the survivors is unaffected. *)
  let popped = ref [] in
  while not (Event_queue.is_empty q) do
    popped := Event_queue.take q :: !popped
  done;
  Alcotest.(check (list int))
    "survivors pop in time order"
    (List.init 342 (fun i -> 3 * i))
    (List.rev !popped)

(* A model of the queue: the queued events as a list sorted by (time,
   push number), and the push count. Each operation runs on both; the
   queue must agree on every result. *)
type op = Push of int | Cancel of int | Take

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun at -> Push at) (int_bound 8));
        (* -1 is [Engine.none]; numbers past the pushes were never issued. *)
        (2, map (fun p -> Cancel p) (int_range (-1) 60));
        (3, return Take);
      ])

let show_op = function
  | Push at -> Printf.sprintf "Push %d" at
  | Cancel p -> Printf.sprintf "Cancel %d" p
  | Take -> "Take"

let prop_queue_model =
  QCheck.Test.make ~name:"event_queue agrees with a sorted-list model" ~count:500
    QCheck.(make ~print:(Print.list show_op) Gen.(list_size (int_bound 120) op_gen))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] and pushed = ref 0 in
      let insert at p =
        let rec go = function
          | [] -> [ (at, p) ]
          | ((at', p') :: _) as l when (at, p) < (at', p') -> (at, p) :: l
          | x :: rest -> x :: go rest
        in
        model := go !model
      in
      let step op =
        (match op with
        | Push at ->
          let p = Event_queue.push q (Simtime.of_us at) (1000 + !pushed) in
          if p <> !pushed then QCheck.Test.fail_reportf "push returned %d, expected %d" p !pushed;
          insert at p;
          incr pushed
        | Cancel p ->
          let p = if p = -1 then Engine.seq Engine.none else p in
          let expected = List.exists (fun (_, p') -> p' = p) !model in
          let got = Event_queue.cancel q p in
          if got <> expected then
            QCheck.Test.fail_reportf "cancel %d returned %b, expected %b" p got expected;
          model := List.filter (fun (_, p') -> p' <> p) !model
        | Take -> (
          match !model with
          | [] -> ()
          | (at, p) :: rest ->
            let next = Simtime.to_us (Event_queue.next_time q) in
            let v = Event_queue.take q in
            if next <> at || v <> 1000 + p || Event_queue.taken q <> p then
              QCheck.Test.fail_reportf "took (%d, %d) with value %d, expected (%d, %d)" next
                (Event_queue.taken q) v at p;
            model := rest));
        if Event_queue.is_empty q <> (!model = []) then
          QCheck.Test.fail_reportf "is_empty %b with %d queued" (Event_queue.is_empty q)
            (List.length !model);
        if Event_queue.pushes q <> !pushed then
          QCheck.Test.fail_reportf "pushes %d, expected %d" (Event_queue.pushes q) !pushed
      in
      List.iter step ops;
      true)

(* What the queue keeps follows the events in flight, not the events
   run: more than a million events pass one far-future timer, one event
   per microsecond, each after a timer is armed and the previous one
   cancelled. The queue's reachable words read the same after the first
   thousand, just before the far timer fires and well after it. *)
let queue_words_bound = 128

let test_event_queue_bounded () =
  let q = Event_queue.create () in
  let far_at = 1_200_000 in
  let far = Event_queue.push q (Simtime.of_us far_at) (-1) in
  let timer = ref (-1) and far_fired = ref 0 and ran_to = ref 0 in
  let words () = Obj.reachable_words (Obj.repr q) in
  let run_to last =
    for now = !ran_to + 1 to last do
      ignore (Event_queue.cancel q !timer);
      timer := Event_queue.push q (Simtime.of_us (now + 10)) now;
      ignore (Event_queue.push q (Simtime.of_us now) now);
      while Simtime.to_us (Event_queue.next_time q) <= now do
        if Event_queue.take q = -1 then begin
          Alcotest.(check int) "far timer's push number" far (Event_queue.taken q);
          incr far_fired
        end
      done
    done;
    ran_to := last
  in
  run_to 1_000;
  let warm = words () in
  if warm > queue_words_bound then
    Alcotest.failf "%d reachable words, bound %d" warm queue_words_bound;
  run_to (far_at - 1);
  Alcotest.(check int) "far timer still waits" 0 !far_fired;
  Alcotest.(check int) "words while the far timer waits" warm (words ());
  run_to (far_at + 300_000);
  Alcotest.(check int) "far timer fired once" 1 !far_fired;
  Alcotest.(check bool) "fired timer cancels nothing" false (Event_queue.cancel q far);
  Alcotest.(check int) "words after it fired" warm (words ())

(* Lanes against closures: one random mix of [schedule_after], [post]
   and [cancel] calls, with equal times among them, runs on two engines.
   On the first every post goes to a lane; on the second, the model, it
   is a [schedule_after] of a closure calling the lane's callback. A
   fired value of [k mod 3 = 0] posts (or, in the model, schedules) a
   follow-up from inside its callback. Both engines must fire the same
   values at the same times with the same [running] push numbers, and
   agree on every cancel and on the event counts. *)
type lane_op = Sched of int | Post of int | Cancel of int | Run of int

let show_lane_op = function
  | Sched d -> Printf.sprintf "Sched %d" d
  | Post d -> Printf.sprintf "Post %d" d
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Run d -> Printf.sprintf "Run %d" d

let lane_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun d -> Sched d) (int_bound 3));
        (4, map (fun d -> Post d) (int_bound 3));
        (2, map (fun i -> Cancel i) (int_bound 20));
        (1, map (fun d -> Run d) (int_bound 4));
      ])

let run_lane_ops ~lanes ops =
  let e = Engine.create () in
  let fired = ref [] and cancels = ref [] and scheduled = ref [||] in
  let next = ref 0 in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let rec record v =
    fired := (v, Engine.seq (Engine.running e), Simtime.to_us (Engine.now e)) :: !fired;
    if v mod 3 = 0 && v < 1_000 then send (Simtime.of_us (v mod 2)) (1_000 + v)
  and lane = lazy (Engine.lane e record)
  and send d v =
    if lanes then Engine.post (Lazy.force lane) d v
    else ignore (Engine.schedule_after e d (fun () -> record v))
  in
  List.iter
    (function
      | Sched d ->
        let v = fresh () in
        let h = Engine.schedule_after e (Simtime.of_us d) (fun () -> record v) in
        scheduled := Array.append !scheduled [| h |]
      | Post d -> send (Simtime.of_us d) (fresh ())
      | Cancel i ->
        (* Cancels a scheduled event, queued or already fired, or
           [Engine.none] when nothing was scheduled yet. *)
        let n = Array.length !scheduled in
        let h = if n = 0 then Engine.none else !scheduled.(i mod n) in
        cancels := Engine.cancel e h :: !cancels
      | Run d -> Engine.run_until e (Simtime.add (Engine.now e) (Simtime.of_us d)))
    ops;
  Engine.run e;
  (List.rev !fired, List.rev !cancels, Engine.pushes e, Engine.events_executed e)

let prop_lane_model =
  QCheck.Test.make ~name:"lane posts fire like scheduled closures" ~count:500
    QCheck.(make ~print:(Print.list show_lane_op) Gen.(list_size (int_bound 80) lane_op_gen))
    (fun ops ->
      let fired, cancels, pushes, events = run_lane_ops ~lanes:true ops in
      let fired', cancels', pushes', events' = run_lane_ops ~lanes:false ops in
      let show l =
        String.concat "; " (List.map (fun (v, p, at) -> Printf.sprintf "%d#%d@%d" v p at) l)
      in
      if fired <> fired' then
        QCheck.Test.fail_reportf "fired %s\nmodel %s" (show fired) (show fired');
      cancels = cancels' && pushes = pushes' && events = events')

(* A value waits in the lane's own queue and the main queue holds the
   lane's one [fire]: once both queues' arrays have grown, a post
   allocates nothing. *)
let test_lane_post_words () =
  let e = Engine.create () in
  let sum = ref 0 in
  let lane = Engine.lane e (fun v -> sum := !sum + v) in
  let posts () =
    for i = 1 to 10_000 do
      Engine.post lane (Simtime.of_us (i mod 7)) i
    done
  in
  posts ();
  Engine.run e;
  let before = Gc.minor_words () in
  posts ();
  let per_post = (Gc.minor_words () -. before) /. 10_000. in
  if per_post > 0. then Alcotest.failf "%.4f words per post, bound 0" per_post;
  Engine.run e;
  Alcotest.(check int) "every value arrived" (2 * 50_005_000) !sum

let suite =
  [
    ( "sim",
      [
        Alcotest.test_case "simtime arithmetic" `Quick test_simtime_arith;
        Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
        Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "event queue order" `Quick test_event_queue_order;
        Alcotest.test_case "event queue FIFO ties" `Quick test_event_queue_fifo_ties;
        Alcotest.test_case "event queue cancel" `Quick test_event_queue_cancel;
        Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire;
        QCheck_alcotest.to_alcotest prop_heap_sorted;
        Alcotest.test_case "engine run_until" `Quick test_engine_run_until;
        Alcotest.test_case "engine periodic timers" `Quick test_engine_periodic;
        Alcotest.test_case "engine cancel inside tick" `Quick test_engine_cancel_inside_tick;
        Alcotest.test_case "engine rejects past events" `Quick test_engine_past_raises;
        Alcotest.test_case "engine loop allocates nothing" `Quick
          test_engine_loop_allocates_nothing;
        Alcotest.test_case "event queue: cancel-heavy heap compacts" `Quick
          test_event_queue_compaction;
        Alcotest.test_case "engine schedules in 0 words" `Quick test_engine_schedule_words;
        QCheck_alcotest.to_alcotest prop_queue_model;
        Alcotest.test_case "event queue size follows events in flight" `Quick
          test_event_queue_bounded;
        QCheck_alcotest.to_alcotest prop_lane_model;
        Alcotest.test_case "a lane post allocates 0 words" `Quick test_lane_post_words;
      ] );
  ]
