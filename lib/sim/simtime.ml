type t = int

let zero = 0

let of_us n =
  if n < 0 then invalid_arg "Simtime.of_us: negative";
  n

let of_ms n = of_us (n * 1_000)
let of_sec s = of_us (int_of_float (s *. 1e6 +. 0.5))
let to_us t = t
let to_sec t = float_of_int t /. 1e6
let add a b = a + b

let diff a b =
  if b > a then invalid_arg "Simtime.diff: negative result";
  a - b

let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let min (a : t) b = Stdlib.min a b
let max (a : t) b = Stdlib.max a b
let pp fmt t = Format.fprintf fmt "%.3fs" (to_sec t)
