(* A binary min-heap over three parallel arrays: heap slot [i] is the
   event due at [times.(i)], pushed as number [seqs.(i)], carrying
   [values.(i)]. The heap holds exactly the queued events: a cancel
   finds its event by a scan of [seqs] and deletes that slot. Sifts move
   a hole rather than swap, so each step writes one slot. *)

type 'a t = {
  mutable times : Simtime.t array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
  mutable taken : int;
}

let create () = { times = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0; taken = -1 }
let is_empty t = t.size = 0
let pushes t = t.next_seq
let taken t = t.taken

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

(* Places [(at, s, v)] at hole [i] or above it. *)
let rec sift_up t i at s v =
  let parent = (i - 1) / 2 in
  if i > 0 && before t at s parent then begin
    move t parent i;
    sift_up t parent at s v
  end
  else place t i at s v

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

let push t at v =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  if t.size = Array.length t.times then grow t v;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) at s v;
  s

(* Deletes slot [i]: the last event refills it and sifts whichever way
   its new neighbours ask. *)
let delete t i =
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let at = Array.unsafe_get t.times last and s = Array.unsafe_get t.seqs last in
    let v = Array.unsafe_get t.values last in
    if i > 0 && before t at s ((i - 1) / 2) then sift_up t i at s v else sift_down t i at s v
  end

(* The slot at or below [i] holding push number [p], or -1. *)
let rec find seqs p i = if i < 0 || Array.unsafe_get seqs i = p then i else find seqs p (i - 1)

let cancel t p =
  if p < 0 || p >= t.next_seq then false
  else
    match find t.seqs p (t.size - 1) with
    | -1 -> false
    | i ->
      delete t i;
      true

let check_nonempty t fn = if t.size = 0 then invalid_arg ("Event_queue." ^ fn ^ ": empty")

let next_time t =
  check_nonempty t "next_time";
  Array.unsafe_get t.times 0

let take t =
  check_nonempty t "take";
  let v = Array.unsafe_get t.values 0 in
  t.taken <- Array.unsafe_get t.seqs 0;
  delete t 0;
  v
