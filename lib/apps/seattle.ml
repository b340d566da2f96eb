module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Platform = Beehive_core.Platform

let app_name = "seattle"
let dict_directory = "directory"
let n_buckets = 64
let k_publish = "seattle.publish"
let k_unpublish = "seattle.unpublish"
let k_resolve = "seattle.resolve"
let k_location = "seattle.location"

let bucket_of_mac mac = string_of_int (Int64.to_int (Int64.rem mac (Int64.of_int n_buckets)))

type Message.payload +=
  | Publish of { pb_mac : int64; pb_switch : int; pb_port : int }
  | Unpublish of { up_mac : int64 }
  | Resolve of { rq_mac : int64; rq_token : int; rq_switch : int }
  | Location of {
      lc_token : int;
      lc_mac : int64;
      lc_found : bool;
      lc_switch : int;
      lc_port : int;
    }

(* One bucket: mac (printed as hex) -> (switch, port). *)
type Value.t += V_bucket of (string * (int * int)) list

let () =
  Value.register_size (function
    | V_bucket l -> Some (8 + (24 * List.length l))
    | _ -> None)

let mac_key mac = Printf.sprintf "%Lx" mac

let map_by_mac mac = Mapping.with_key dict_directory (bucket_of_mac mac)

let map_msg (msg : Message.t) =
  match msg.Message.payload with
  | Publish { pb_mac; _ } -> map_by_mac pb_mac
  | Unpublish { up_mac } -> map_by_mac up_mac
  | Resolve { rq_mac; _ } -> map_by_mac rq_mac
  | _ -> Mapping.Drop

let bucket ctx key =
  match Context.get ctx ~dict:dict_directory ~key with
  | Some (V_bucket l) -> l
  | Some _ | None -> []

let on_publish =
  App.handler ~kind:k_publish ~map:map_msg (fun ctx msg ->
      match msg.Message.payload with
      | Publish { pb_mac; pb_switch; pb_port } ->
        let key = bucket_of_mac pb_mac in
        let bindings =
          (mac_key pb_mac, (pb_switch, pb_port))
          :: List.remove_assoc (mac_key pb_mac) (bucket ctx key)
        in
        Context.set ctx ~dict:dict_directory ~key (V_bucket bindings)
      | _ -> ())

let on_unpublish =
  App.handler ~kind:k_unpublish ~map:map_msg (fun ctx msg ->
      match msg.Message.payload with
      | Unpublish { up_mac } ->
        let key = bucket_of_mac up_mac in
        Context.set ctx ~dict:dict_directory ~key
          (V_bucket (List.remove_assoc (mac_key up_mac) (bucket ctx key)))
      | _ -> ())

let on_resolve =
  App.handler ~kind:k_resolve ~map:map_msg (fun ctx msg ->
      match msg.Message.payload with
      | Resolve { rq_mac; rq_token; _ } ->
        let reply =
          match List.assoc_opt (mac_key rq_mac) (bucket ctx (bucket_of_mac rq_mac)) with
          | Some (sw, port) ->
            Location
              { lc_token = rq_token; lc_mac = rq_mac; lc_found = true; lc_switch = sw; lc_port = port }
          | None ->
            Location
              { lc_token = rq_token; lc_mac = rq_mac; lc_found = false; lc_switch = -1; lc_port = -1 }
        in
        Context.emit ctx ~size:32 ~kind:k_location reply
      | _ -> ())

let app () =
  App.create ~name:app_name ~dicts:[ dict_directory ] [ on_publish; on_unpublish; on_resolve ]

let lookup platform ~mac =
  match Platform.read platform ~app:app_name ~dict:dict_directory ~key:(bucket_of_mac mac) with
  | Some (V_bucket l) -> List.assoc_opt (mac_key mac) l
  | _ -> None

let bucket_sizes platform =
  List.filter_map
    (function key, V_bucket (_ :: _ as l) -> Some (key, List.length l) | _ -> None)
    (Platform.read_dict platform ~app:app_name ~dict:dict_directory)
