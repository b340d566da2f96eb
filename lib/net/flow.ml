module Rng = Beehive_sim.Rng
module Simtime = Beehive_sim.Simtime

type t = {
  flow_id : int;
  src_switch : int;
  dst_switch : int;
  rate_bps : float;
  starts_at : float;
  mutable current_path : int list;
}

let generate rng topo ~per_switch ~hot_fraction ~base_rate ~hot_rate
    ?(start_spread = 0.0) () =
  if per_switch < 0 then invalid_arg "Flow.generate: negative per_switch";
  if hot_fraction < 0.0 || hot_fraction > 1.0 then
    invalid_arg "Flow.generate: hot_fraction out of [0,1]";
  if start_spread < 0.0 then invalid_arg "Flow.generate: negative start_spread";
  let n = Topology.n_switches topo in
  let hot_per_switch = int_of_float (hot_fraction *. float_of_int per_switch +. 0.5) in
  let make sw k =
    let flow_id = (sw * per_switch) + k in
    let dst_switch =
      if n = 1 then sw
      else begin
        (* uniform over the other switches *)
        let d = Rng.int rng (n - 1) in
        if d >= sw then d + 1 else d
      end
    in
    let rate_bps = if k < hot_per_switch then hot_rate else base_rate in
    let starts_at = if start_spread = 0.0 then 0.0 else Rng.float rng start_spread in
    {
      flow_id;
      src_switch = sw;
      dst_switch;
      rate_bps;
      starts_at;
      current_path = Topology.path topo sw dst_switch;
    }
  in
  Array.init (n * per_switch) (fun i -> make (i / per_switch) (i mod per_switch))

let is_hot ~threshold f = f.rate_bps > threshold

(* One loop that reads the clock once: a per-flow call across modules
   would box its float result and the clock's. *)
let counters flows ~at =
  let now = Simtime.to_sec at in
  let bytes = Array.make (Array.length flows) 0.0 in
  for i = 0 to Array.length flows - 1 do
    let f = flows.(i) in
    let elapsed = now -. f.starts_at in
    if elapsed > 0.0 then bytes.(i) <- f.rate_bps *. elapsed
  done;
  bytes
