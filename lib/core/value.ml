type t = ..

type t +=
  | V_int of int
  | V_float of float
  | V_string of string
  | V_bool of bool
  | V_pair of t * t
  | V_list of t list

let default_size = 64
let size_hooks : (t -> int option) list ref = ref []
let register_size f = size_hooks := f :: !size_hooks

let rec size v =
  match v with
  | V_int _ -> 8
  | V_float _ -> 8
  | V_bool _ -> 1
  | V_string s -> 4 + String.length s
  | V_pair (a, b) -> size a + size b
  | V_list l -> List.fold_left (fun acc x -> acc + size x) 4 l
  | _ ->
    let rec try_hooks = function
      | [] -> default_size
      | h :: rest -> ( match h v with Some n -> n | None -> try_hooks rest)
    in
    try_hooks !size_hooks

let rec pp fmt v =
  match v with
  | V_int n -> Format.pp_print_int fmt n
  | V_float f -> Format.fprintf fmt "%g" f
  | V_bool b -> Format.pp_print_bool fmt b
  | V_string s -> Format.fprintf fmt "%S" s
  | V_pair (a, b) -> Format.fprintf fmt "(%a, %a)" pp a pp b
  | V_list l ->
    Format.fprintf fmt "[%a]"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") pp)
      l
  | _ -> Format.pp_print_string fmt "<abstract>"

let rec garble v =
  match v with
  | V_int n -> V_int (n lxor 0x2AAAAAAA)
  | V_bool b -> V_bool (not b)
  | V_float f -> V_float (-.f -. 1.0)
  | V_string s -> V_string (String.map (fun c -> Char.chr (Char.code c lxor 0x20)) s)
  | V_pair (a, b) -> V_pair (garble a, garble b)
  | V_list l -> V_list (List.map garble l)
  | v -> v
