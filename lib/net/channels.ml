module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng

type endpoint =
  | Hive of int
  | Switch of int

let local_latency = Simtime.of_us 5
let hive_latency = Simtime.of_us 200
let switch_latency = Simtime.of_us 100
let bytes_per_us = 100.0
let bucket = Simtime.of_sec 1.0

type t = {
  mutable n : int;
  mutable hive_eps : endpoint array;  (* [Hive h] at index h, built once *)
  rng : Rng.t;
  masters : (int, int) Hashtbl.t;
  matrix : Traffic_matrix.t;
  mutable series : Series.t;
  mutable lat_factor : float array;  (* n*n, directed: src*n + dst *)
  mutable loss : float array;  (* n*n drop probability per directed link *)
  mutable parted : bool array;  (* n*n severed directed links *)
  mutable n_faults : int;
      (* lossy or severed directed links; 0 = the fabric is healthy and
         reliability machinery above can take its fast path *)
}

let create ~rng ~n_hives =
  if n_hives <= 0 then invalid_arg "Channels.create: need at least one hive";
  {
    n = n_hives;
    hive_eps = Array.init n_hives (fun h -> Hive h);
    rng;
    masters = Hashtbl.create 64;
    matrix = Traffic_matrix.create n_hives;
    series = Series.create ~bucket;
    lat_factor = Array.make (n_hives * n_hives) 1.0;
    loss = Array.make (n_hives * n_hives) 0.0;
    parted = Array.make (n_hives * n_hives) false;
    n_faults = 0;
  }

let idx t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Channels: hive out of range";
  (src * t.n) + dst

(* Grows the fabric to host one more hive. The flat n*n link arrays are
   re-laid out at the new stride with the old directed-link state
   preserved; the new hive's links start healthy. Returns the new hive's
   id. *)
let add_hive t =
  let n = t.n and n' = t.n + 1 in
  let lat = Array.make (n' * n') 1.0 in
  let loss = Array.make (n' * n') 0.0 in
  let parted = Array.make (n' * n') false in
  for src = 0 to n - 1 do
    Array.blit t.lat_factor (src * n) lat (src * n') n;
    Array.blit t.loss (src * n) loss (src * n') n;
    Array.blit t.parted (src * n) parted (src * n') n
  done;
  t.lat_factor <- lat;
  t.loss <- loss;
  t.parted <- parted;
  t.n <- n';
  t.hive_eps <- Array.append t.hive_eps [| Hive n |];
  Traffic_matrix.grow t.matrix n';
  n

let recount_faults t =
  let n = ref 0 in
  for i = 0 to Array.length t.loss - 1 do
    if t.loss.(i) > 0.0 || t.parted.(i) then incr n
  done;
  t.n_faults <- !n

let set_link_latency_factor t ~src ~dst f =
  if f < 1.0 then invalid_arg "Channels.set_link_latency_factor: factor < 1";
  t.lat_factor.(idx t ~src ~dst) <- f

let set_latency_factor t f =
  if f < 1.0 then invalid_arg "Channels.set_latency_factor: factor < 1";
  Array.fill t.lat_factor 0 (Array.length t.lat_factor) f

let set_loss t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Channels.set_loss: need 0 <= p < 1";
  Array.fill t.loss 0 (Array.length t.loss) p;
  recount_faults t

let partition t ~a ~b =
  if a = b then invalid_arg "Channels.partition: a hive cannot split from itself";
  t.parted.(idx t ~src:a ~dst:b) <- true;
  t.parted.(idx t ~src:b ~dst:a) <- true;
  recount_faults t

let heal_all t =
  Array.fill t.parted 0 (Array.length t.parted) false;
  recount_faults t

let faulty t = t.n_faults > 0

let hive_endpoint t h = if h >= 0 && h < t.n then t.hive_eps.(h) else Hive h

(* On the per-message path (a switch's messages name their origin hive
   through it): [find], not [find_opt], so nothing is allocated. *)
let master_of t sw = match Hashtbl.find t.masters sw with h -> h | exception Not_found -> 0

let assign_switch t ~switch ~hive =
  if hive < 0 || hive >= t.n then invalid_arg "Channels.assign_switch: bad hive";
  Hashtbl.replace t.masters switch hive

let ser_delay bytes =
  Simtime.of_us (int_of_float (float_of_int bytes /. bytes_per_us))

let hive_of t = function
  | Hive h -> h
  | Switch s -> master_of t s

let scale t ~src ~dst d =
  let f = t.lat_factor.(idx t ~src ~dst) in
  if f = 1.0 then d
  else Simtime.of_us (int_of_float (float_of_int (Simtime.to_us d) *. f))

(* Accounts a transmitted message and computes its delivery latency.
   Factored so [transfer] (reliable accounting charges) and
   [transfer_result] (failable wire) agree byte-for-byte. *)
let account t ~src ~dst ~bytes ~now =
  let sh = hive_of t src and dh = hive_of t dst in
  let crosses_switch_link =
    match (src, dst) with Switch _, _ | _, Switch _ -> true | Hive _, Hive _ -> false
  in
  if sh = dh then
    if crosses_switch_link then
      scale t ~src:sh ~dst:dh (Simtime.add switch_latency (ser_delay bytes))
    else begin
      (* Intra-hive bee-to-bee message: diagonal of the traffic matrix,
         but not inter-hive channel bandwidth. *)
      Traffic_matrix.add t.matrix ~src:sh ~dst:dh ~bytes;
      scale t ~src:sh ~dst:dh local_latency
    end
  else begin
    (* Remote: the message traverses an inter-hive channel. *)
    Traffic_matrix.add t.matrix ~src:sh ~dst:dh ~bytes;
    Series.add t.series ~at:now bytes;
    let base =
      if crosses_switch_link then Simtime.add switch_latency hive_latency
      else hive_latency
    in
    scale t ~src:sh ~dst:dh (Simtime.add base (ser_delay bytes))
  end

let transfer t ~src ~dst ~bytes ~now = account t ~src ~dst ~bytes ~now

let round_trip t ~src ~dst ~req_bytes ~resp_bytes ~now =
  let a = hive_endpoint t src and b = hive_endpoint t dst in
  let l1 = transfer t ~src:a ~dst:b ~bytes:req_bytes ~now in
  Simtime.add l1 (transfer t ~src:b ~dst:a ~bytes:resp_bytes ~now)

let transfer_result t ~src ~dst ~bytes ~now =
  let sh = hive_of t src and dh = hive_of t dst in
  if sh <> dh && t.parted.(idx t ~src:sh ~dst:dh) then begin
    (* Severed link: nothing leaves the source, no bytes accounted. *)
    `Lost
  end
  else begin
    let p = if sh = dh then 0.0 else t.loss.(idx t ~src:sh ~dst:dh) in
    let lat = account t ~src ~dst ~bytes ~now in
    if p > 0.0 && Rng.float t.rng 1.0 < p then begin
      (* Transmitted, then lost in flight: the source link carried the
         bytes (so retransmission overhead shows in the series), but the
         destination never sees them. *)
      `Lost
    end
    else `Delivered lat
  end

let matrix t = t.matrix
let bandwidth t = t.series

let reset_accounting t =
  Traffic_matrix.reset t.matrix;
  t.series <- Series.create ~bucket
