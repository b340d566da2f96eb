(* Shared test utilities: mini-platform builders, payloads, and clock /
   cluster helpers. Scenario construction lives here once — suites must
   not re-implement these. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Cell = Beehive_core.Cell

type Message.payload +=
  | Put of { p_key : string; p_value : int }
  | Get_all
  | Noop of int

let k_put = "test.put"
let k_get_all = "test.get_all"
let k_noop = "test.noop"

(* A key-sharded counter app: each [Put] maps to the cell of its key; a
   [Get_all] handler optionally maps the whole dictionary (the
   centralizing pattern). *)
let kv_app ?(name = "test.kv") ?(with_whole_dict_reader = false) () =
  let on_put =
    App.handler ~kind:k_put
      ~map:(fun msg ->
        match msg.Message.payload with
        | Put { p_key; _ } -> Mapping.with_key "store" p_key
        | _ -> Mapping.Drop)
      (fun ctx msg ->
        match msg.Message.payload with
        | Put { p_key; p_value } ->
          Context.update ctx ~dict:"store" ~key:p_key (function
            | Some (Value.V_int n) -> Some (Value.V_int (n + p_value))
            | _ -> Some (Value.V_int p_value))
        | _ -> ())
  in
  let on_get_all =
    App.handler ~kind:k_get_all
      ~map:(fun _ -> Mapping.whole_dict "store")
      (fun ctx _ ->
        let n = ref 0 in
        Context.iter_dict ctx ~dict:"store" (fun _ _ -> incr n);
        Context.set ctx ~dict:"store" ~key:"__total" (Value.V_int !n))
  in
  App.create ~name ~dicts:[ "store" ]
    (if with_whole_dict_reader then [ on_put; on_get_all ] else [ on_put ])

let make_platform ?(n_hives = 4) ?durability ?inject ?(apps = []) () =
  let engine = Engine.create () in
  let cfg = { (Platform.default_config ~n_hives) with Platform.durability; inject } in
  let platform = Platform.create engine cfg in
  List.iter (Platform.register_app platform) apps;
  Platform.start platform;
  (engine, platform)

let drain engine = Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 1.0))

let run_for engine secs =
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec secs))

(* The kv app marked [replicated]: an installed replication scheme (e.g.
   Raft) ships its commits and provides its failover state. *)
let replicated_kv_app ?name ?with_whole_dict_reader () =
  { (kv_app ?name ?with_whole_dict_reader ()) with App.replicated = true }

(* A platform whose non-local bees write through the durable storage
   engine (WAL + snapshots). *)
let durable_platform ?(n_hives = 4) ?(config = Beehive_store.Store.default_config)
    ?(apps = [ kv_app () ]) () =
  make_platform ~n_hives ~durability:config ~apps ()

(* Runs the simulation until the Raft cluster elects a leader (10 s of
   simulated time at most). *)
let await_leader engine cluster =
  let deadline = Simtime.add (Engine.now engine) (Simtime.of_sec 10.0) in
  let rec go () =
    match Cluster.leader cluster with
    | Some l -> l
    | None ->
      if Simtime.(Engine.now engine > deadline) then Alcotest.fail "no leader elected";
      Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_ms 50));
      go ()
  in
  go ()

let put platform ~from ~key ~value =
  Platform.inject platform ~from:(Channels.Hive from) ~kind:k_put
    (Put { p_key = key; p_value = value })

let owner_exn platform ~app key =
  match Platform.find_owner platform ~app (Cell.cell "store" key) with
  | Some b -> b
  | None -> Alcotest.fail (Printf.sprintf "no owner for key %s" key)

let store_value platform ~bee ~key =
  List.find_map
    (fun (dict, k, v) ->
      if String.equal dict "store" && String.equal k key then
        match v with Value.V_int n -> Some n | _ -> None
      else None)
    (Platform.bee_state_entries platform bee)

(* How many of a scenario's flows run above its TE threshold: the flows
   every TE design must re-route. *)
let hot_flow_count sc =
  let module Scenario = Beehive_harness.Scenario in
  let threshold = Beehive_apps.Te_common.delta in
  Array.fold_left
    (fun n f -> if Beehive_net.Flow.is_hot ~threshold f then n + 1 else n)
    0 (Scenario.flows sc)

(* Behaviour pins. [behaviour.digests] holds "<section> <key> <digest>"
   lines; [check_pinned ~section actual] compares the section's
   (key, digest) pairs with [actual]. On a mismatch it prints the file as
   it would read now: an intended behaviour change is re-pinned by
   copying it. *)
let behaviour_file = "behaviour.digests"

let behaviour_lines () =
  In_channel.with_open_text behaviour_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

let section_of line =
  if line.[0] = '#' then None
  else
    match String.split_on_char ' ' line with
    | s :: rest when rest <> [] -> Some (s, rest)
    | _ -> Alcotest.failf "%s: malformed line %S" behaviour_file line

(* The section's pinned (key, digest) pairs, in file order. *)
let pinned ~section =
  List.filter_map
    (fun line ->
      match section_of line with
      | Some (s, fields) when String.equal s section ->
        let rev = List.rev fields in
        Some (String.concat " " (List.rev (List.tl rev)), List.hd rev)
      | _ -> None)
    (behaviour_lines ())

let check_pinned ~section actual =
  let lines = behaviour_lines () in
  if pinned ~section <> actual then begin
    let fresh = List.map (fun (k, d) -> Printf.sprintf "%s %s %s" section k d) actual in
    let printed = ref false in
    let out =
      List.concat_map
        (fun line ->
          match section_of line with
          | Some (s, _) when String.equal s section ->
            if !printed then []
            else begin
              printed := true;
              fresh
            end
          | _ -> [ line ])
        lines
    in
    List.iter print_endline (if !printed then out else out @ fresh);
    Alcotest.failf "%s digests differ from %s (its current contents printed above)" section
      behaviour_file
  end

(* Words allocated by [f ()], net of the measurement's own overhead. *)
let minor_words_of f =
  let span f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  span f -. span ignore
