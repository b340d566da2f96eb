module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Platform = Beehive_core.Platform
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Simtime = Beehive_sim.Simtime
open Te_common

let local_app_name = "kandoo.local"
let root_app_name = "kandoo.root"
let dict_local = "local_stats"
let dict_elephants = "elephants"
let k_elephant = "kandoo.elephant"

type Message.payload += Elephant of { el_flow : int; el_switch : int; el_rate : float }

type Value.t += V_elephant of { ve_switch : int; ve_rate : float }

let () =
  Value.register_size (function V_elephant _ -> Some 16 | _ -> None)

(* Local function: frequent events, single-switch state — in Beehive just
   an app whose keys are switch ids. Its Collect reports each new
   elephant to the root. *)
let report_elephants ctx switch obs =
  let hot = hot_flows ~delta:Te_common.delta obs in
  List.iter
    (fun i ->
      Context.emit ctx ~size:24 ~kind:k_elephant
        (Elephant { el_flow = obs.ob_flows.(i); el_switch = switch; el_rate = obs.ob_rates.(i) }))
    hot;
  mark_handled obs hot

let local_app () =
  App.create ~name:local_app_name ~dicts:[ dict_local ]
    [
      on_stat_reply ~dict:dict_local ~cost:(Simtime.of_us 15)
        ~hot:report_elephants;
    ]

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
  List.filter_map
    (fun (key, v) ->
      match v with
      | V_elephant { ve_switch; ve_rate } -> Some (int_of_string key, ve_switch, ve_rate)
      | _ -> None)
    (Platform.read_dict platform ~app:root_app_name ~dict:dict_elephants)
  |> List.sort compare
