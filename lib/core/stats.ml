type t = {
  mutable processed : int;
  mutable busy_us : int;
  (* current window *)
  mutable cur_processed : int;
  mutable cur_in_by_hive : int array;
      (* indexed by source hive, grown on demand: elastic joins add hives *)
}

type window = {
  w_processed : int;
  w_in_by_hive : (int * int) list;
}

let create () =
  {
    processed = 0;
    busy_us = 0;
    cur_processed = 0;
    cur_in_by_hive = [||];
  }

let count_in t h =
  let counts = t.cur_in_by_hive in
  let n = Array.length counts in
  let counts =
    if h < n then counts
    else begin
      let grown = Array.make (max (h + 1) (2 * n)) 0 in
      Array.blit counts 0 grown 0 n;
      t.cur_in_by_hive <- grown;
      grown
    end
  in
  counts.(h) <- counts.(h) + 1

let record_in t ~src_hive =
  t.processed <- t.processed + 1;
  t.cur_processed <- t.cur_processed + 1;
  if src_hive >= 0 then count_in t src_hive

let record_done t ~busy = t.busy_us <- t.busy_us + Beehive_sim.Simtime.to_us busy

(* log2 latency histogram: bucket i counts samples in [2^i, 2^(i+1)) us,
   bucket 0 also holding sub-microsecond samples *)
type latency = { buckets : int array; mutable samples : int }

let n_buckets = 40
let latency () = { buckets = Array.make n_buckets 0; samples = 0 }

let bucket_of_us us =
  if us <= 1 then 0
  else begin
    let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
    min (n_buckets - 1) (go 0 us)
  end

let record_latency h lat =
  let b = bucket_of_us (Beehive_sim.Simtime.to_us lat) in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.samples <- h.samples + 1

let latency_percentile h p =
  if h.samples = 0 then None
  else begin
    let target = int_of_float (ceil (p *. float_of_int h.samples)) in
    let target = max 1 (min h.samples target) in
    let rec go i seen =
      if i >= n_buckets then None
      else begin
        let seen = seen + h.buckets.(i) in
        if seen >= target then Some (1 lsl (i + 1)) else go (i + 1) seen
      end
    in
    go 0 0
  end

let processed t = t.processed
let busy_us t = t.busy_us

(* Zeroes [counts.(0..h)], returning its non-zero entries in hive order. *)
let rec drain counts h acc =
  if h < 0 then acc
  else begin
    let n = counts.(h) in
    if n = 0 then drain counts (h - 1) acc
    else begin
      counts.(h) <- 0;
      drain counts (h - 1) ((h, n) :: acc)
    end
  end

let empty_window = { w_processed = 0; w_in_by_hive = [] }

(* An idle bee's window is the shared empty one: every count is still
   zero, since [record_in] bumps [cur_processed] with each of them. *)
let take_window t =
  if t.cur_processed = 0 then empty_window
  else begin
    let counts = t.cur_in_by_hive in
    let w =
      { w_processed = t.cur_processed; w_in_by_hive = drain counts (Array.length counts - 1) [] }
    in
    t.cur_processed <- 0;
    w
  end
