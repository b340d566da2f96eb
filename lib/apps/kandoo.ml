module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Cell = Beehive_core.Cell
module Platform = Beehive_core.Platform
module Simtime = Beehive_sim.Simtime
module Wire = Beehive_openflow.Wire
open Te_common

let local_app_name = "kandoo.local"
let root_app_name = "kandoo.root"
let dict_local = "local_stats"
let dict_elephants = "elephants"
let k_elephant = "kandoo.elephant"
let key_of_switch = string_of_int

type Message.payload += Elephant of { el_flow : int; el_switch : int; el_rate : float }

type Value.t += V_elephant of { ve_switch : int; ve_rate : float }

let () =
  Value.register_size (function V_elephant _ -> Some 16 | _ -> None)

(* Local function: frequent events, single-switch state — in Beehive just
   an app whose keys are switch ids. *)
let on_stat_reply ~threshold =
  App.handler
    ~cost:(fun _ -> Simtime.of_us 15)
    ~kind:Wire.k_app_stat_reply
    ~map:(fun msg ->
      match msg.Message.payload with
      | Wire.Stat_reply { sr_switch; _ } ->
        Mapping.with_key dict_local (key_of_switch sr_switch)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Stat_reply { sr_switch; sr_stats } ->
        let key = key_of_switch sr_switch in
        let prev =
          match Context.get ctx ~dict:dict_local ~key with
          | Some (V_obs o) -> o
          | Some _ | None -> no_obs
        in
        let now = Simtime.to_sec (Context.now ctx) in
        let obs = collect_stats ~now ~prev sr_stats in
        let hot = hot_flows ~delta:threshold obs in
        List.iter
          (fun i ->
            Context.emit ctx ~size:24 ~kind:k_elephant
              (Elephant
                 { el_flow = obs.ob_flows.(i); el_switch = sr_switch; el_rate = obs.ob_rates.(i) }))
          hot;
        let obs = mark_handled obs hot in
        Context.set ctx ~dict:dict_local ~key (V_obs obs)
      | _ -> ())

let local_app ?(threshold = 100_000.0) () =
  App.create ~name:local_app_name ~dicts:[ dict_local ] [ on_stat_reply ~threshold ]

(* Root function: rare events, centralized state. *)
let on_elephant =
  App.handler ~kind:k_elephant
    ~map:(fun _ -> Mapping.whole_dict dict_elephants)
    (fun ctx msg ->
      match msg.Message.payload with
      | Elephant { el_flow; el_switch; el_rate } ->
        Context.set ctx ~dict:dict_elephants ~key:(string_of_int el_flow)
          (V_elephant { ve_switch = el_switch; ve_rate = el_rate })
      | _ -> ())

let root_app () = App.create ~name:root_app_name ~dicts:[ dict_elephants ] [ on_elephant ]

let elephants platform =
  match Platform.find_owner platform ~app:root_app_name (Cell.whole dict_elephants) with
  | None -> []
  | Some bee ->
    List.filter_map
      (fun (dict, key, v) ->
        if String.equal dict dict_elephants then
          match v with
          | V_elephant { ve_switch; ve_rate } ->
            Some (int_of_string key, ve_switch, ve_rate)
          | _ -> None
        else None)
      (Platform.bee_state_entries platform bee)
    |> List.sort compare
