module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Platform = Beehive_core.Platform
module Wire = Beehive_openflow.Wire

let app_name = "topo.discovery"
let dict_adjacency = "adjacency"
let k_link_up = "topo.link_up"
let k_link_down = "topo.link_down"
let key_of_switch = string_of_int

type Message.payload +=
  | Link_up of { lu_a : int; lu_b : int }
  | Link_down of { ld_a : int; ld_b : int }

(* Neighbour entry as seen from this switch's cell. *)
type neighbor = {
  nb_switch : int;
  nb_port : int;  (** local port facing the neighbour *)
  nb_sightings : int;  (** probes seen for this link (2+ = confirmed) *)
}

type Value.t += V_adjacency of neighbor list

let () =
  Value.register_size (function
    | V_adjacency l -> Some (8 + (16 * List.length l))
    | _ -> None)

let entries ctx key =
  match Context.get ctx ~dict:dict_adjacency ~key with
  | Some (V_adjacency l) -> l
  | Some _ | None -> []

(* The handler maps to the cell of the switch that *received* the probe;
   each endpoint's cell tracks its own view of the link. *)
let on_link_discovered =
  App.handler ~kind:Wire.k_link_discovered
    ~map:(fun msg ->
      match msg.Message.payload with
      | Wire.Link_discovered { ld_dst_switch; _ } ->
        Mapping.with_key dict_adjacency (key_of_switch ld_dst_switch)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Link_discovered { ld_src_switch; ld_dst_switch; ld_dst_port; _ } ->
        let key = key_of_switch ld_dst_switch in
        let prior = entries ctx key in
        let prev = List.find_opt (fun n -> n.nb_switch = ld_src_switch) prior in
        let sightings = match prev with Some n -> n.nb_sightings + 1 | None -> 1 in
        let updated =
          { nb_switch = ld_src_switch; nb_port = ld_dst_port; nb_sightings = sightings }
          :: List.filter (fun n -> n.nb_switch <> ld_src_switch) prior
        in
        Context.set ctx ~dict:dict_adjacency ~key (V_adjacency updated);
        (* Second sighting confirms the link bidirectionally. *)
        if sightings = 2 then
          Context.emit ctx ~size:16 ~kind:k_link_up
            (Link_up
               {
                 lu_a = min ld_src_switch ld_dst_switch;
                 lu_b = max ld_src_switch ld_dst_switch;
               })
      | _ -> ())

(* A dead port retires the neighbour behind it and announces the loss. *)
let on_port_event =
  App.handler ~kind:Wire.k_port_event
    ~map:(fun msg ->
      match msg.Message.payload with
      | Wire.Port_event { pe_switch; _ } ->
        Mapping.with_key dict_adjacency (key_of_switch pe_switch)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Port_event { pe_switch; pe_port; pe_up = false } ->
        let key = key_of_switch pe_switch in
        let prior = entries ctx key in
        let dead, live = List.partition (fun n -> n.nb_port = pe_port) prior in
        if dead <> [] then begin
          Context.set ctx ~dict:dict_adjacency ~key (V_adjacency live);
          List.iter
            (fun n ->
              Context.emit ctx ~size:16 ~kind:k_link_down
                (Link_down { ld_a = pe_switch; ld_b = n.nb_switch }))
            dead
        end
      | _ -> ())

let app () =
  App.create ~name:app_name ~dicts:[ dict_adjacency ] [ on_link_discovered; on_port_event ]

let neighbors_of platform ~switch =
  match Platform.read platform ~app:app_name ~dict:dict_adjacency ~key:(key_of_switch switch) with
  | Some (V_adjacency l) -> List.sort_uniq Int.compare (List.map (fun n -> n.nb_switch) l)
  | _ -> []
