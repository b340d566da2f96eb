type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Finalizer from splitmix64 (Steele et al., "Fast splittable pseudorandom
   number generators"). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let create seed = { state = mix64 (Int64.of_int seed) }
let split t = { state = next_int64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Shift first so the value is non-negative as an Int64, reduce there,
     and only then convert: converting 63 significant bits to a native
     int could wrap negative. *)
  let r = Int64.rem (Int64.shift_right_logical (next_int64 t) 1) (Int64.of_int bound) in
  Int64.to_int r

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))
