(* A mark packs [(sender, seq)] as [(sender + 1) lsl 32 lor seq]: the
   sender in the high bits, offset by one so the virtual sender -1 packs
   to 0, and the seq in the low 32 bits. Every mark is non-negative, so
   int order is (sender, seq) order and -1 is free for [none]. *)

type t = int

let none = -1
let seq_bits = 32
let max_seq = (1 lsl seq_bits) - 1
let max_sender = (max_int lsr seq_bits) - 1

let make ~sender ~seq =
  if sender < -1 || sender > max_sender || seq < 0 || seq > max_seq then
    invalid_arg (Printf.sprintf "Mark.make: sender %d, seq %d out of range" sender seq);
  ((sender + 1) lsl seq_bits) lor seq

let of_int m =
  if m < none then invalid_arg (Printf.sprintf "Mark.of_int: %d is no mark" m);
  m

let is_none m = m = none
let sender m = (m lsr seq_bits) - 1
let seq m = m land max_seq

(* A mark whose sender is a bee, not the virtual -1 (sender + 1 = 0). *)
let acked m = m > max_seq
let compare = Int.compare

module Set = struct
  (* An empty slot holds [none], which no member equals. [shift] is 63
     less the table's log2 size: the home slot takes the top bits of a
     multiplicative hash, which every bit of the mark reaches. *)
  type nonrec t = { mutable slots : int array; mutable live : int; mutable shift : int }

  let min_slots = 16
  let min_shift = 59

  let create () = { slots = Array.make min_slots none; live = 0; shift = min_shift }
  let home m shift = (m * 0x9E3779B97F4A7C1) lsr shift

  let rec probe q m i =
    let v = Array.unsafe_get q i in
    if v = m then true else if v = none then false else probe q m ((i + 1) land (Array.length q - 1))

  let mem s m = m >= 0 && probe s.slots m (home m s.shift)

  (* Puts [m] in the first empty slot of its run; true if it was absent. *)
  let rec insert q m i =
    let v = Array.unsafe_get q i in
    if v = none then begin
      Array.unsafe_set q i m;
      true
    end
    else v <> m && insert q m ((i + 1) land (Array.length q - 1))

  let grow s =
    let old = s.slots in
    let shift = s.shift - 1 in
    let q = Array.make (2 * Array.length old) none in
    Array.iter (fun v -> if v <> none then ignore (insert q v (home v shift))) old;
    s.slots <- q;
    s.shift <- shift

  let add s m =
    if m < 0 then invalid_arg "Mark.Set.add: no mark";
    if 2 * (s.live + 1) > Array.length s.slots then grow s;
    if insert s.slots m (home m s.shift) then s.live <- s.live + 1

  (* Empties slot [hole], moving later members of its probe run back so
     that every member stays reachable from its home slot; [j] is the
     last slot looked at. *)
  let rec shift_back q shift hole j =
    let mask = Array.length q - 1 in
    let j = (j + 1) land mask in
    let v = Array.unsafe_get q j in
    if v = none then Array.unsafe_set q hole none
    else if (j - home v shift) land mask >= (j - hole) land mask then begin
      Array.unsafe_set q hole v;
      shift_back q shift j j
    end
    else shift_back q shift hole j

  let rec slot_of q m i =
    let v = Array.unsafe_get q i in
    if v = m then i else if v = none then -1 else slot_of q m ((i + 1) land (Array.length q - 1))

  let remove s m =
    if m >= 0 then begin
      let i = slot_of s.slots m (home m s.shift) in
      if i >= 0 then begin
        shift_back s.slots s.shift i i;
        s.live <- s.live - 1
      end
    end

  let cardinal s = s.live

  let fold f s acc =
    let q = s.slots in
    let acc = ref acc in
    for i = 0 to Array.length q - 1 do
      let v = Array.unsafe_get q i in
      if v <> none then acc := f v !acc
    done;
    !acc

  let clear s =
    s.slots <- Array.make min_slots none;
    s.live <- 0;
    s.shift <- min_shift
end

module Acks = struct
  (* Pair [i] sits at [buf.(2i)] (receiver) and [buf.(2i + 1)] (mark). *)
  type nonrec t = { mutable buf : int array; mutable n : int }

  let create () = { buf = [||]; n = 0 }

  let push a ~receiver m =
    let k = 2 * a.n in
    if k = Array.length a.buf then begin
      let grown = Array.make (max 16 (2 * k)) 0 in
      Array.blit a.buf 0 grown 0 k;
      a.buf <- grown
    end;
    Array.unsafe_set a.buf k receiver;
    Array.unsafe_set a.buf (k + 1) m;
    a.n <- a.n + 1

  let length a = a.n

  let receiver a i =
    if i < 0 || i >= a.n then invalid_arg "Mark.Acks.receiver";
    Array.unsafe_get a.buf (2 * i)

  let mark a i =
    if i < 0 || i >= a.n then invalid_arg "Mark.Acks.mark";
    Array.unsafe_get a.buf ((2 * i) + 1)

  let clear a = a.n <- 0
end
