type t =
  | Key of { dict : string; key : string }
  | Cells of Cell.Set.t
  | Foreach of string
  | Local
  | Drop

let with_key dict key = Key { dict; key }

let with_keys = function
  | [ (dict, key) ] -> Key { dict; key }
  | l -> Cells (Cell.Set.of_list (List.map (fun (d, k) -> Cell.cell d k) l))

let whole_dict d = Cells (Cell.Set.singleton (Cell.whole d))
let whole_dicts ds = Cells (Cell.Set.of_list (List.map Cell.whole ds))

let pp fmt = function
  | Key { dict; key } -> Format.fprintf fmt "cells {%a}" Cell.pp (Cell.cell dict key)
  | Cells s -> Format.fprintf fmt "cells %a" Cell.Set.pp s
  | Foreach d -> Format.fprintf fmt "foreach %s" d
  | Local -> Format.pp_print_string fmt "local"
  | Drop -> Format.pp_print_string fmt "drop"
