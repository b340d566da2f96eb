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

(* Open-addressed tables of non-negative int keys: linear probing from a
   multiplicative hash, at most half full, and removal by backward
   shift, so no tombstone stays behind. An empty slot holds [none],
   which no key equals. [shift] is 63 less the table's log2 size: the
   home slot takes the top bits of the hash, which every bit of the key
   reaches. A table starts with no slots and takes 16 at its first key. *)
let min_slots = 16
let min_shift = 59
let home k shift = (k * 0x9E3779B97F4A7C1) lsr shift

(* The slot holding [k], or the empty slot that ends its probe run. *)
let rec find_slot q k i =
  let v = Array.unsafe_get q i in
  if v = k || v = none then i else find_slot q k ((i + 1) land (Array.length q - 1))

(* Empties slot [hole], moving later keys of its probe run back (with
   their values, when [vals] is a parallel value array and not [[||]])
   so that every key stays reachable from its home slot; [j] is the last
   slot looked at. The hole the shift ends on keeps its old value,
   which no lookup reaches. *)
let rec shift_back q vals shift hole j =
  let mask = Array.length q - 1 in
  let j = (j + 1) land mask in
  let v = Array.unsafe_get q j in
  if v = none then Array.unsafe_set q hole none
  else if (j - home v shift) land mask >= (j - hole) land mask then begin
    Array.unsafe_set q hole v;
    if Array.length vals > 0 then Array.unsafe_set vals hole (Array.unsafe_get vals j);
    shift_back q vals shift j j
  end
  else shift_back q vals shift hole j

(* The size and shift of a table grown from [n] slots. *)
let grown_slots n = max min_slots (2 * n)
let grown_shift n shift = if n = 0 then min_shift else shift - 1

module Table = struct
  type 'a t = {
    mutable keys : int array;
    mutable vals : 'a array;  (* [vals.(i)] is [keys.(i)]'s value *)
    mutable live : int;
    mutable shift : int;
  }

  let create () = { keys = [||]; vals = [||]; live = 0; shift = min_shift }
  let slot t k = find_slot t.keys k (home k t.shift)

  let find t k =
    if k < 0 || t.live = 0 then raise Not_found;
    let i = slot t k in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i else raise Not_found

  let find_or t k default =
    if k < 0 || t.live = 0 then default
    else
      let i = slot t k in
      if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i else default

  (* [v] fills the new value array's empty slots. *)
  let grow t v =
    let keys = t.keys and vals = t.vals in
    let n = Array.length keys in
    let shift = grown_shift n t.shift in
    let q = Array.make (grown_slots n) none in
    let w = Array.make (Array.length q) v in
    for j = 0 to n - 1 do
      let k = Array.unsafe_get keys j in
      if k <> none then begin
        let i = find_slot q k (home k shift) in
        Array.unsafe_set q i k;
        Array.unsafe_set w i (Array.unsafe_get vals j)
      end
    done;
    t.keys <- q;
    t.vals <- w;
    t.shift <- shift

  let replace t k v =
    if k < 0 then invalid_arg "Mark.Table.replace: negative key";
    if 2 * (t.live + 1) > Array.length t.keys then grow t v;
    let i = slot t k in
    if Array.unsafe_get t.keys i = none then begin
      Array.unsafe_set t.keys i k;
      t.live <- t.live + 1
    end;
    Array.unsafe_set t.vals i v

  let remove t k =
    if k >= 0 && t.live > 0 then begin
      let i = slot t k in
      if Array.unsafe_get t.keys i = k then begin
        shift_back t.keys t.vals t.shift i i;
        t.live <- t.live - 1
      end
    end

  let length t = t.live

  let fold f t acc =
    let keys = t.keys in
    let acc = ref acc in
    for i = 0 to Array.length keys - 1 do
      let k = Array.unsafe_get keys i in
      if k <> none then acc := f k (Array.unsafe_get t.vals i) !acc
    done;
    !acc

  let clear t =
    t.keys <- [||];
    t.vals <- [||];
    t.live <- 0;
    t.shift <- min_shift
end

module Set = struct
  (* A sender's floor is the largest [f] such that its seqs [1 .. f] are
     all members; the probe table holds only the members above their
     sender's floor (and seq 0, which no floor covers). [floors] is keyed
     by a mark's high half, [sender + 1], and [floored] counts the marks
     under the floors. *)
  type nonrec t = {
    mutable slots : int array;
    mutable live : int;
    mutable shift : int;
    floors : int Table.t;
    mutable floored : int;
  }

  let create () =
    { slots = [||]; live = 0; shift = min_shift; floors = Table.create (); floored = 0 }

  let floor s m = Table.find_or s.floors (m lsr seq_bits) 0

  (* Whether [m] sits in the probe table. *)
  let probed s m =
    s.live > 0 && Array.unsafe_get s.slots (find_slot s.slots m (home m s.shift)) = m

  let mem s m =
    m >= 0
    &&
    let q = seq m in
    (q >= 1 && q <= floor s m) || probed s m

  let grow s =
    let old = s.slots in
    let n = Array.length old in
    let shift = grown_shift n s.shift in
    let q = Array.make (grown_slots n) none in
    for j = 0 to n - 1 do
      let v = Array.unsafe_get old j in
      if v <> none then Array.unsafe_set q (find_slot q v (home v shift)) v
    done;
    s.slots <- q;
    s.shift <- shift

  (* Puts [m] in the probe table if it is not there. *)
  let insert s m =
    if 2 * (s.live + 1) > Array.length s.slots then grow s;
    let i = find_slot s.slots m (home m s.shift) in
    if Array.unsafe_get s.slots i = none then begin
      Array.unsafe_set s.slots i m;
      s.live <- s.live + 1
    end

  (* Takes [m] out of the probe table; true if it was there. *)
  let unprobe s m =
    s.live > 0
    &&
    let i = find_slot s.slots m (home m s.shift) in
    Array.unsafe_get s.slots i = m
    && begin
         shift_back s.slots [||] s.shift i i;
         s.live <- s.live - 1;
         true
       end

  (* The highest seq of the contiguous run from [top] up, taking the
     run's probed seqs out of the table. *)
  let rec absorb s h top =
    if top < max_seq && unprobe s ((h lsl seq_bits) lor (top + 1)) then absorb s h (top + 1)
    else top

  (* Seq [f + 1] of the sender with high half [h] joined its floor [f]:
     the floor rises over it and over every probed seq contiguous above. *)
  let raise_floor s h f =
    let top = absorb s h (f + 1) in
    Table.replace s.floors h top;
    s.floored <- s.floored + (top - f)

  let add s m =
    if m < 0 then invalid_arg "Mark.Set.add: no mark";
    let q = seq m and f = floor s m in
    if q = f + 1 then raise_floor s (m lsr seq_bits) f
    else if q = 0 || q > f then insert s m

  (* Removing seq [q] under its sender's floor [f] splits the floor: it
     drops to [q - 1] and seqs [q + 1 .. f] move to the probe table. *)
  let remove s m =
    if m >= 0 then begin
      let q = seq m and f = floor s m in
      if q >= 1 && q <= f then begin
        let h = m lsr seq_bits in
        Table.replace s.floors h (q - 1);
        s.floored <- s.floored - (f - q + 1);
        for x = q + 1 to f do
          insert s ((h lsl seq_bits) lor x)
        done
      end
      else ignore (unprobe s m)
    end

  let cardinal s = s.live + s.floored

  let fold f s acc =
    let under h top acc =
      let acc = ref acc in
      for q = 1 to top do
        acc := f ((h lsl seq_bits) lor q) !acc
      done;
      !acc
    in
    let q = s.slots in
    let acc = ref (Table.fold under s.floors acc) in
    for i = 0 to Array.length q - 1 do
      let v = Array.unsafe_get q i in
      if v <> none then acc := f v !acc
    done;
    !acc

  let clear s =
    s.slots <- [||];
    s.live <- 0;
    s.shift <- min_shift;
    Table.clear s.floors;
    s.floored <- 0
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
