type t = {
  mutable processed : int;
  mutable errors : int;
  mutable busy_us : int;
  provenance : (string * string, int) Hashtbl.t;
  (* current window *)
  mutable cur_processed : int;
  cur_in_by_hive : (int, int) Hashtbl.t;
  (* log2 latency histogram: index i counts samples in [2^i, 2^(i+1)) us,
     index 0 also holding sub-microsecond samples *)
  latency_buckets : int array;
  mutable latency_samples : int;
}

type window = {
  w_processed : int;
  w_in_by_hive : (int * int) list;
}

let create () =
  {
    processed = 0;
    errors = 0;
    busy_us = 0;
    provenance = Hashtbl.create 8;
    cur_processed = 0;
    cur_in_by_hive = Hashtbl.create 8;
    latency_buckets = Array.make 40 0;
    latency_samples = 0;
  }

let bump tbl k n =
  Hashtbl.replace tbl k (n + match Hashtbl.find tbl k with c -> c | exception Not_found -> 0)

let record_in t ~src_hive =
  t.processed <- t.processed + 1;
  t.cur_processed <- t.cur_processed + 1;
  match src_hive with Some h -> bump t.cur_in_by_hive h 1 | None -> ()

let record_done t ~busy = t.busy_us <- t.busy_us + Beehive_sim.Simtime.to_us busy
let record_error t = t.errors <- t.errors + 1

let bucket_of_us us =
  if us <= 1 then 0
  else begin
    let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
    min 39 (go 0 us)
  end

let record_latency t lat =
  let us = Beehive_sim.Simtime.to_us lat in
  let b = bucket_of_us us in
  t.latency_buckets.(b) <- t.latency_buckets.(b) + 1;
  t.latency_samples <- t.latency_samples + 1

let latency_percentile t p =
  if t.latency_samples = 0 then None
  else begin
    let target = int_of_float (ceil (p *. float_of_int t.latency_samples)) in
    let target = max 1 (min t.latency_samples target) in
    let rec go i seen =
      if i >= 40 then None
      else begin
        let seen = seen + t.latency_buckets.(i) in
        if seen >= target then Some (1 lsl (i + 1)) else go (i + 1) seen
      end
    in
    go 0 0
  end

let merge_latency ~into src =
  for i = 0 to 39 do
    into.latency_buckets.(i) <- into.latency_buckets.(i) + src.latency_buckets.(i)
  done;
  into.latency_samples <- into.latency_samples + src.latency_samples

let record_out t ~in_kind ~out_kind =
  bump t.provenance (in_kind, out_kind) 1

let processed t = t.processed
let errors t = t.errors
let busy_us t = t.busy_us

let sorted_assoc tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let provenance t =
  Hashtbl.fold (fun (i, o) n acc -> (i, o, n) :: acc) t.provenance []
  |> List.sort compare

let take_window t =
  let w = { w_processed = t.cur_processed; w_in_by_hive = sorted_assoc t.cur_in_by_hive } in
  t.cur_processed <- 0;
  Hashtbl.reset t.cur_in_by_hive;
  w

let window_total_in w = List.fold_left (fun acc (_, n) -> acc + n) 0 w.w_in_by_hive

let window_majority_hive w =
  let total = window_total_in w in
  if total = 0 then None
  else begin
    let best_hive, best_n =
      List.fold_left
        (fun (bh, bn) (h, n) -> if n > bn then (h, n) else (bh, bn))
        (-1, -1) w.w_in_by_hive
    in
    Some (best_hive, float_of_int best_n /. float_of_int total)
  end
