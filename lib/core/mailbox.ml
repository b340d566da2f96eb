type 'a t = {
  filler : 'a;
  mutable buf : 'a array;  (* empty or a power of two long, so [land] wraps *)
  mutable head : int;  (* index of the front value *)
  mutable len : int;
}

let create ~filler = { filler; buf = [||]; head = 0; len = 0 }
let is_empty t = t.len = 0
let length t = t.len

(* Doubles the capacity (at least 2), unrolling the ring to start at 0. *)
let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (max 2 (2 * cap)) t.filler in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- buf;
  t.head <- 0

let push x t =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Mailbox.pop: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- t.filler;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) t.filler;
  t.head <- 0;
  t.len <- 0

let transfer src dst =
  while not (is_empty src) do
    push (pop src) dst
  done
