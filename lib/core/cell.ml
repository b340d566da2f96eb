type key =
  | Key of string
  | All

type t = { dict : string; key : key }

let cell dict k = { dict; key = Key k }
let whole dict = { dict; key = All }

let compare_key a b =
  match (a, b) with
  | All, All -> 0
  | All, Key _ -> -1
  | Key _, All -> 1
  | Key x, Key y -> String.compare x y

let compare a b =
  match String.compare a.dict b.dict with
  | 0 -> compare_key a.key b.key
  | c -> c

let is_wildcard c = c.key = All

let intersects a b =
  String.equal a.dict b.dict
  && (match (a.key, b.key) with
     | All, _ | _, All -> true
     | Key x, Key y -> String.equal x y)

let pp fmt c =
  match c.key with
  | All -> Format.fprintf fmt "(%s, *)" c.dict
  | Key k -> Format.fprintf fmt "(%s, %s)" c.dict k

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = struct
  include Set.Make (Ord)

  let intersects a b =
    (* Fast path: exact element in common. *)
    not (is_empty (inter a b))
    || exists (fun ca -> is_wildcard ca && exists (fun cb -> intersects ca cb) b) a
    || exists (fun cb -> is_wildcard cb && exists (fun ca -> intersects ca cb) a) b


  let pp fmt s =
    Format.fprintf fmt "{%a}"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") pp)
      (elements s)
end
