module Simtime = Beehive_sim.Simtime

type t = {
  bucket_us : int;
  mutable data : float array;
  mutable last : int; (* highest touched bucket index, -1 if none *)
}

let create ~bucket =
  let bucket_us = Simtime.to_us bucket in
  if bucket_us <= 0 then invalid_arg "Series.create: bucket must be positive";
  { bucket_us; data = Array.make 16 0.0; last = -1 }

let ensure t i =
  let cap = Array.length t.data in
  if i >= cap then begin
    let ncap = ref cap in
    while i >= !ncap do
      ncap := !ncap * 2
    done;
    let nd = Array.make !ncap 0.0 in
    Array.blit t.data 0 nd 0 cap;
    t.data <- nd
  end

let add t ~at v =
  let i = Simtime.to_us at / t.bucket_us in
  ensure t i;
  t.data.(i) <- t.data.(i) +. float_of_int v;
  if i > t.last then t.last <- i

let bucket_sec t = float_of_int t.bucket_us /. 1e6

let rate_kbps t =
  let w = bucket_sec t in
  Array.init (t.last + 1) (fun i -> (float_of_int i *. w, t.data.(i) /. w /. 1024.0))

let peak t =
  let p = ref 0.0 in
  for i = 0 to t.last do
    if t.data.(i) > !p then p := t.data.(i)
  done;
  !p

let total t =
  let s = ref 0.0 in
  for i = 0 to t.last do
    s := !s +. t.data.(i)
  done;
  !s

let levels = " .:-=+*#%@"

let sparkline_width = 60

let render_sparkline fmt t =
  if t.last < 0 then Format.pp_print_string fmt "(empty)"
  else begin
    let n = t.last + 1 in
    let w = Stdlib.min sparkline_width n in
    let group = (n + w - 1) / w in
    let mx = peak t in
    for g = 0 to w - 1 do
      let lo = g * group and hi = Stdlib.min n ((g + 1) * group) in
      let v = ref 0.0 in
      for i = lo to hi - 1 do
        v := Stdlib.max !v t.data.(i)
      done;
      let k =
        if mx <= 0.0 then 0
        else Stdlib.min 9 (int_of_float (!v /. mx *. 9.0 +. 0.5))
      in
      Format.pp_print_char fmt levels.[k]
    done
  end
