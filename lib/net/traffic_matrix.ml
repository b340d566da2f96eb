type t = {
  mutable n : int;
  mutable byts : float array array;
}

let create n =
  if n <= 0 then invalid_arg "Traffic_matrix.create: size must be positive";
  { n; byts = Array.make_matrix n n 0.0 }

let size t = t.n

let grow t n' =
  if n' < t.n then invalid_arg "Traffic_matrix.grow: matrices never shrink";
  if n' > t.n then begin
    let byts = Array.make_matrix n' n' 0.0 in
    for i = 0 to t.n - 1 do
      Array.blit t.byts.(i) 0 byts.(i) 0 t.n
    done;
    t.n <- n';
    t.byts <- byts
  end

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Traffic_matrix: hive index out of range"

let add t ~src ~dst ~bytes =
  check t src;
  check t dst;
  t.byts.(src).(dst) <- t.byts.(src).(dst) +. float_of_int bytes

let bytes t ~src ~dst =
  check t src;
  check t dst;
  t.byts.(src).(dst)

let fold f init t =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    for j = 0 to t.n - 1 do
      acc := f !acc i j
    done
  done;
  !acc

let total_bytes t = fold (fun a i j -> a +. t.byts.(i).(j)) 0.0 t

let off_diagonal_bytes t =
  fold (fun a i j -> if i = j then a else a +. t.byts.(i).(j)) 0.0 t

let locality_fraction t =
  let total = total_bytes t in
  if total <= 0.0 then 1.0 else (total -. off_diagonal_bytes t) /. total

let touching t h =
  let acc = ref 0.0 in
  for j = 0 to t.n - 1 do
    acc := !acc +. t.byts.(h).(j)
  done;
  for i = 0 to t.n - 1 do
    if i <> h then acc := !acc +. t.byts.(i).(h)
  done;
  !acc

let hotspot_hive t =
  let best = ref 0 and best_v = ref neg_infinity in
  for h = 0 to t.n - 1 do
    let v = touching t h in
    if v > !best_v then begin
      best := h;
      best_v := v
    end
  done;
  !best

let hotspot_share t =
  let total = total_bytes t in
  if total <= 0.0 then 0.0 else touching t (hotspot_hive t) /. total

let row_bytes t i =
  check t i;
  Array.fold_left ( +. ) 0.0 t.byts.(i)

let col_bytes t j =
  check t j;
  let acc = ref 0.0 in
  for i = 0 to t.n - 1 do
    acc := !acc +. t.byts.(i).(j)
  done;
  !acc

let merge_into ~dst src =
  if dst.n <> src.n then invalid_arg "Traffic_matrix.merge_into: size mismatch";
  for i = 0 to src.n - 1 do
    for j = 0 to src.n - 1 do
      dst.byts.(i).(j) <- dst.byts.(i).(j) +. src.byts.(i).(j)
    done
  done

let reset t =
  for i = 0 to t.n - 1 do
    for j = 0 to t.n - 1 do
      t.byts.(i).(j) <- 0.0
    done
  done

(* A cell is rendered by the decade of its byte count relative to the
   matrix maximum: '.' for zero, '1'..'9' for increasing log-share, '#'
   for the hottest decade. *)
let render fmt t =
  let mx = fold (fun a i j -> Stdlib.max a t.byts.(i).(j)) 0.0 t in
  let glyph v =
    if v <= 0.0 then '.'
    else if mx <= 0.0 then '.'
    else begin
      let r = v /. mx in
      if r >= 0.9 then '#'
      else begin
        (* map [1e-9, 0.9) logarithmically onto '1'..'9' *)
        let l = (log10 r +. 9.0) /. 9.0 in
        let k = Stdlib.max 1 (Stdlib.min 9 (1 + int_of_float (l *. 9.0))) in
        Char.chr (Char.code '0' + k)
      end
    end
  in
  Format.fprintf fmt "@[<v>";
  for i = 0 to t.n - 1 do
    for j = 0 to t.n - 1 do
      Format.pp_print_char fmt (glyph t.byts.(i).(j))
    done;
    Format.pp_print_cut fmt ()
  done;
  Format.fprintf fmt "@]"
