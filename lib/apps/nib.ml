module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Platform = Beehive_core.Platform

let app_name = "onix.nib"
let dict_nodes = "nodes"
let k_add_node = "nib.add_node"
let k_del_node = "nib.del_node"
let k_set_attr = "nib.set_attr"
let k_add_link = "nib.add_link"
let k_del_link = "nib.del_link"
let k_query = "nib.query"
let k_node_info = "nib.node_info"

type Message.payload +=
  | Add_node of { an_id : string; an_kind : string }
  | Del_node of { dn_id : string }
  | Set_attr of { sa_id : string; sa_key : string; sa_value : string }
  | Add_link of { al_src : string; al_dst : string }
  | Del_link of { dl_src : string; dl_dst : string }
  | Query of { q_id : string; q_token : int }
  | Node_info of {
      ni_token : int;
      ni_id : string;
      ni_exists : bool;
      ni_kind : string;
      ni_attrs : (string * string) list;
      ni_links : string list;
    }

type node = {
  n_kind : string;
  n_attrs : (string * string) list;
  n_links : string list;
}

type Value.t += V_node of node

let () =
  Value.register_size (function
    | V_node n ->
      Some
        (16
        + List.fold_left (fun a (k, v) -> a + String.length k + String.length v) 0 n.n_attrs
        + List.fold_left (fun a l -> a + String.length l) 0 n.n_links)
    | _ -> None)

let node_id_of = function
  | Add_node { an_id; _ } -> Some an_id
  | Del_node { dn_id } -> Some dn_id
  | Set_attr { sa_id; _ } -> Some sa_id
  | Add_link { al_src; _ } -> Some al_src
  | Del_link { dl_src; _ } -> Some dl_src
  | Query { q_id; _ } -> Some q_id
  | _ -> None

let map_per_node (msg : Message.t) =
  match node_id_of msg.Message.payload with
  | Some id -> Mapping.with_key dict_nodes id
  | None -> Mapping.Drop

let get_node ctx id =
  match Context.get ctx ~dict:dict_nodes ~key:id with
  | Some (V_node n) -> Some n
  | Some _ | None -> None

let handler kind rcv = App.handler ~kind ~map:map_per_node rcv

let on_add_node =
  handler k_add_node (fun ctx msg ->
      match msg.Message.payload with
      | Add_node { an_id; an_kind } ->
        if get_node ctx an_id = None then
          Context.set ctx ~dict:dict_nodes ~key:an_id
            (V_node { n_kind = an_kind; n_attrs = []; n_links = [] })
      | _ -> ())

let on_del_node =
  handler k_del_node (fun ctx msg ->
      match msg.Message.payload with
      | Del_node { dn_id } -> Context.del ctx ~dict:dict_nodes ~key:dn_id
      | _ -> ())

let on_set_attr =
  handler k_set_attr (fun ctx msg ->
      match msg.Message.payload with
      | Set_attr { sa_id; sa_key; sa_value } -> (
        match get_node ctx sa_id with
        | Some n ->
          let attrs = (sa_key, sa_value) :: List.remove_assoc sa_key n.n_attrs in
          Context.set ctx ~dict:dict_nodes ~key:sa_id (V_node { n with n_attrs = attrs })
        | None -> ())
      | _ -> ())

let on_add_link =
  handler k_add_link (fun ctx msg ->
      match msg.Message.payload with
      | Add_link { al_src; al_dst } -> (
        match get_node ctx al_src with
        | Some n when not (List.mem al_dst n.n_links) ->
          Context.set ctx ~dict:dict_nodes ~key:al_src
            (V_node { n with n_links = List.sort String.compare (al_dst :: n.n_links) })
        | Some _ | None -> ())
      | _ -> ())

let on_del_link =
  handler k_del_link (fun ctx msg ->
      match msg.Message.payload with
      | Del_link { dl_src; dl_dst } -> (
        match get_node ctx dl_src with
        | Some n ->
          Context.set ctx ~dict:dict_nodes ~key:dl_src
            (V_node { n with n_links = List.filter (fun l -> l <> dl_dst) n.n_links })
        | None -> ())
      | _ -> ())

let on_query =
  handler k_query (fun ctx msg ->
      match msg.Message.payload with
      | Query { q_id; q_token } ->
        let info =
          match get_node ctx q_id with
          | Some n ->
            Node_info
              {
                ni_token = q_token;
                ni_id = q_id;
                ni_exists = true;
                ni_kind = n.n_kind;
                ni_attrs = n.n_attrs;
                ni_links = n.n_links;
              }
          | None ->
            Node_info
              {
                ni_token = q_token;
                ni_id = q_id;
                ni_exists = false;
                ni_kind = "";
                ni_attrs = [];
                ni_links = [];
              }
        in
        Context.emit ctx ~size:64 ~kind:k_node_info info
      | _ -> ())

let app () =
  App.create ~name:app_name ~dicts:[ dict_nodes ]
    [ on_add_node; on_del_node; on_set_attr; on_add_link; on_del_link; on_query ]

let read_node platform id =
  match Platform.read platform ~app:app_name ~dict:dict_nodes ~key:id with
  | Some (V_node n) -> Some n
  | _ -> None

let node_exists platform id = read_node platform id <> None
let node_links platform id =
  match read_node platform id with Some n -> n.n_links | None -> []
let node_attrs platform id =
  match read_node platform id with Some n -> n.n_attrs | None -> []
