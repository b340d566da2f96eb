type 'a entry = {
  at : Simtime.t;
  seq : int;
  value : 'a;
  mutable queued : bool;  (* false once popped or cancelled *)
}

type 'a handle = 'a entry

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  mutable live : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0; live = 0 }
let is_empty t = t.live = 0
let value e = e.value
let seq e = e.seq
let pushes t = t.next_seq
let detached value = { at = Simtime.zero; seq = -1; value; queued = false }

let entry_lt a b =
  match Simtime.compare a.at b.at with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && entry_lt t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && entry_lt t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t e =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let nheap = Array.make ncap e in
    Array.blit t.heap 0 nheap 0 t.size;
    t.heap <- nheap
  end

let push t at value =
  let e = { at; seq = t.next_seq; value; queued = true } in
  t.next_seq <- t.next_seq + 1;
  grow t e;
  t.heap.(t.size) <- e;
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  sift_up t (t.size - 1);
  e

(* Rebuilds the heap from the live entries only. [(at, seq)] is a
   total order, so the heap's internal shape never affects pop order —
   compaction is invisible to callers. *)
let compact t =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    let e = t.heap.(i) in
    if e.queued then begin
      t.heap.(!n) <- e;
      incr n
    end
  done;
  t.size <- !n;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let cancel t e =
  if not e.queued then false
  else begin
    e.queued <- false;
    t.live <- t.live - 1;
    (* Long soaks with heavy timer churn (transport retries, scrub
       slices, outbox rechecks) otherwise sift over a majority of
       tombstones on every push/pop. *)
    if t.size >= 16 && 2 * t.live < t.size then compact t;
    true
  end

(* Removes the heap's root, live or tombstone. *)
let remove_min t =
  let e = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end;
  e

(* Brings the earliest live entry to the root; the queue must hold one. *)
let rec live_root t =
  let e = t.heap.(0) in
  if e.queued then e
  else begin
    ignore (remove_min t);
    live_root t
  end

let check_live t fn = if t.live = 0 then invalid_arg ("Event_queue." ^ fn ^ ": empty")

let next_time t =
  check_live t "next_time";
  (live_root t).at

let take t =
  check_live t "take";
  ignore (live_root t);
  let e = remove_min t in
  e.queued <- false;
  t.live <- t.live - 1;
  e

let physical_size t = t.size
