(* A binary min-heap over three parallel arrays: heap slot [i] is the
   event due at [times.(i)], pushed as number [seqs.(i)], carrying
   [values.(i)]. Sifts move a hole rather than swap, so each step writes
   one slot. A cancelled event stays in the heap as a tombstone until it
   surfaces or a compaction drops it.

   [queued] is the set of push numbers still queued (pushed, neither
   taken nor cancelled): an open-addressed table of ints, [free] in an
   empty slot, kept at most half full and probed linearly from a
   multiplicative hash of the push number. The events in flight are
   mostly recent pushes, so probing from [p land mask] would lay them
   out as one long run that every removal walks to its end; the hash
   scatters them. The table's size follows the events in flight, not
   the events ever pushed. *)

let free = -1

(* The slot a probe for [p] starts at, in a table of [mask + 1] slots. *)
let home p mask = ((p * 0x9E3779B97F4A7C1) lsr 30) land mask

type 'a t = {
  mutable times : Simtime.t array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;  (* heap slots in use, tombstones included *)
  mutable next_seq : int;
  mutable taken : int;
  mutable queued : int array;  (* a power of two long *)
  mutable live : int;  (* members of [queued] *)
}

let min_table = 16

let create () =
  {
    times = [||];
    seqs = [||];
    values = [||];
    size = 0;
    next_seq = 0;
    taken = -1;
    queued = Array.make min_table free;
    live = 0;
  }

let is_empty t = t.live = 0
let pushes t = t.next_seq
let taken t = t.taken

(* --- the set of queued push numbers --- *)

let rec probe q p i =
  let v = Array.unsafe_get q i in
  if v = p then i else if v = free then -1 else probe q p ((i + 1) land (Array.length q - 1))

(* The slot holding [p], or -1 when [p] is not queued; [p >= 0]. *)
let find t p = probe t.queued p (home p (Array.length t.queued - 1))

let rec insert q p i =
  if Array.unsafe_get q i = free then Array.unsafe_set q i p
  else insert q p ((i + 1) land (Array.length q - 1))

let add t p =
  if 2 * (t.live + 1) > Array.length t.queued then begin
    let old = t.queued in
    let q = Array.make (2 * Array.length old) free in
    let mask = Array.length q - 1 in
    Array.iter (fun v -> if v <> free then insert q v (home v mask)) old;
    t.queued <- q
  end;
  insert t.queued p (home p (Array.length t.queued - 1));
  t.live <- t.live + 1

(* Empties slot [hole], moving later members of its probe run back so
   that every member stays reachable from its home slot; [j] is the last
   slot looked at. *)
let rec shift q hole j =
  let mask = Array.length q - 1 in
  let j = (j + 1) land mask in
  let v = Array.unsafe_get q j in
  if v = free then Array.unsafe_set q hole free
  else if (j - home v mask) land mask >= (j - hole) land mask then begin
    Array.unsafe_set q hole v;
    shift q j j
  end
  else shift q hole j

let remove_slot t hole =
  shift t.queued hole hole;
  t.live <- t.live - 1

(* --- the heap --- *)

(* Whether the event at [(at, s)] goes before the one in slot [j]. *)
let before t (at : Simtime.t) s j =
  let at = (at :> int) and tj = (Array.unsafe_get t.times j :> int) in
  at < tj || (at = tj && s < Array.unsafe_get t.seqs j)

let move t src dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.values dst (Array.unsafe_get t.values src)

let place t i at s v =
  Array.unsafe_set t.times i at;
  Array.unsafe_set t.seqs i s;
  Array.unsafe_set t.values i v

(* Places [(at, s, v)] at hole [i] or below it. *)
let rec sift_down t i at s v =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i at s v
  else begin
    let r = l + 1 in
    let c =
      if r < t.size && before t (Array.unsafe_get t.times r) (Array.unsafe_get t.seqs r) l then r
      else l
    in
    if before t at s c then place t i at s v
    else begin
      move t c i;
      sift_down t c at s v
    end
  end

let grow t v =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let times = Array.make ncap Simtime.zero in
  let seqs = Array.make ncap 0 and values = Array.make ncap v in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values

(* The slot at or above hole [i] for a new event at [at]: its push
   number is the largest yet, so only an earlier time puts it before a
   parent. *)
let rec sift_up t (at : Simtime.t) i =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    if (at :> int) < (Array.unsafe_get t.times parent :> int) then begin
      move t parent i;
      sift_up t at parent
    end
    else i

let push t at v =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  if t.size = Array.length t.times then grow t v;
  let i = sift_up t at t.size in
  t.size <- t.size + 1;
  place t i at s v;
  add t s;
  s

(* Rebuilds the heap from the queued events only. [(at, seq)] is a total
   order, so the heap's internal shape never affects pop order:
   compaction is invisible to callers. *)
let compact t =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if find t t.seqs.(i) >= 0 then begin
      move t i !n;
      incr n
    end
  done;
  t.size <- !n;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i t.times.(i) t.seqs.(i) t.values.(i)
  done

let cancel t p =
  if p < 0 || p >= t.next_seq then false
  else
    match find t p with
    | -1 -> false
    | i ->
      remove_slot t i;
      (* Long soaks with heavy timer churn (transport retries, scrub
         slices, outbox rechecks) otherwise sift over a majority of
         tombstones on every push and take. *)
      if t.size >= 16 && 2 * t.live < t.size then compact t;
      true

(* Removes the heap's root, queued or tombstone. *)
let remove_root t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then
    sift_down t 0 (Array.unsafe_get t.times last) (Array.unsafe_get t.seqs last)
      (Array.unsafe_get t.values last)

(* Drops tombstones until the root is queued, and returns the root's
   slot in [queued]; the queue must hold a queued event. *)
let rec queued_root t =
  match find t (Array.unsafe_get t.seqs 0) with
  | -1 ->
    remove_root t;
    queued_root t
  | i -> i

let check_live t fn = if t.live = 0 then invalid_arg ("Event_queue." ^ fn ^ ": empty")

let next_time t =
  check_live t "next_time";
  ignore (queued_root t);
  Array.unsafe_get t.times 0

let take t =
  check_live t "take";
  remove_slot t (queued_root t);
  let v = Array.unsafe_get t.values 0 in
  t.taken <- Array.unsafe_get t.seqs 0;
  remove_root t;
  v

let physical_size t = t.size
