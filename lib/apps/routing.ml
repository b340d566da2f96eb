module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Platform = Beehive_core.Platform

let app_name = "routing"
let dict_rib = "rib"
let k_announce = "route.announce"
let k_withdraw = "route.withdraw"
let k_lookup = "route.lookup"
let k_resolved = "route.resolved"

type route = { nh_switch : int; metric : int }

type Message.payload +=
  | Announce of { an_prefix : string; an_route : route }
  | Withdraw of { wd_prefix : string; wd_switch : int }
  | Lookup of { lk_addr : string; lk_token : int; lk_fallback : bool }
  | Resolved of {
      rs_token : int;
      rs_addr : string;
      rs_prefix : string option;
      rs_route : route option;
    }

type Value.t += V_rib of route list Lpm_trie.t

let () =
  Value.register_size (function
    | V_rib t -> Some (16 + (24 * Lpm_trie.cardinal t))
    | _ -> None)

let top_octet addr = Int32.to_int (Int32.shift_right_logical addr 24)

let shard_key (p : Lpm_trie.prefix) =
  if p.Lpm_trie.p_len < 8 then "default" else string_of_int (top_octet p.Lpm_trie.p_addr)

let shard_of_addr addr = string_of_int (top_octet addr)

let map_msg (msg : Message.t) =
  match msg.Message.payload with
  | Announce { an_prefix; _ } ->
    Mapping.with_key dict_rib (shard_key (Lpm_trie.prefix_of_string an_prefix))
  | Withdraw { wd_prefix; _ } ->
    Mapping.with_key dict_rib (shard_key (Lpm_trie.prefix_of_string wd_prefix))
  | Lookup { lk_addr; lk_fallback; _ } ->
    Mapping.with_key dict_rib
      (if lk_fallback then "default" else shard_of_addr (Lpm_trie.addr_of_string lk_addr))
  | _ -> Mapping.Drop

let get_trie ctx shard =
  match Context.get ctx ~dict:dict_rib ~key:shard with
  | Some (V_rib t) -> t
  | Some _ | None -> Lpm_trie.empty

let best = function
  | [] -> None
  | routes ->
    Some
      (List.fold_left
         (fun acc r -> if r.metric < acc.metric then r else acc)
         (List.hd routes) (List.tl routes))

let on_announce =
  App.handler ~kind:k_announce ~map:map_msg (fun ctx msg ->
      match msg.Message.payload with
      | Announce { an_prefix; an_route } ->
        let p = Lpm_trie.prefix_of_string an_prefix in
        let shard = shard_key p in
        let trie = get_trie ctx shard in
        let routes = Option.value ~default:[] (Lpm_trie.find_exact trie p) in
        let routes =
          an_route
          :: List.filter (fun r -> r.nh_switch <> an_route.nh_switch) routes
        in
        Context.set ctx ~dict:dict_rib ~key:shard (V_rib (Lpm_trie.insert trie p routes))
      | _ -> ())

let on_withdraw =
  App.handler ~kind:k_withdraw ~map:map_msg (fun ctx msg ->
      match msg.Message.payload with
      | Withdraw { wd_prefix; wd_switch } ->
        let p = Lpm_trie.prefix_of_string wd_prefix in
        let shard = shard_key p in
        let trie = get_trie ctx shard in
        (match Lpm_trie.find_exact trie p with
        | None -> ()
        | Some routes ->
          let routes = List.filter (fun r -> r.nh_switch <> wd_switch) routes in
          let trie =
            if routes = [] then Lpm_trie.remove trie p else Lpm_trie.insert trie p routes
          in
          Context.set ctx ~dict:dict_rib ~key:shard (V_rib trie))
      | _ -> ())

let on_lookup =
  App.handler ~kind:k_lookup ~map:map_msg (fun ctx msg ->
      match msg.Message.payload with
      | Lookup { lk_addr; lk_token; lk_fallback } -> (
        let shard = if lk_fallback then "default" else shard_of_addr (Lpm_trie.addr_of_string lk_addr) in
        let trie = get_trie ctx shard in
        match Lpm_trie.lookup trie (Lpm_trie.addr_of_string lk_addr) with
        | Some (p, routes) ->
          Context.emit ctx ~size:48 ~kind:k_resolved
            (Resolved
               {
                 rs_token = lk_token;
                 rs_addr = lk_addr;
                 rs_prefix = Some (Lpm_trie.string_of_prefix p);
                 rs_route = best routes;
               })
        | None ->
          if not lk_fallback then
            (* Miss in the block shard: try the default shard. *)
            Context.emit ctx ~size:32 ~kind:k_lookup
              (Lookup { lk_addr; lk_token; lk_fallback = true })
          else
            Context.emit ctx ~size:48 ~kind:k_resolved
              (Resolved { rs_token = lk_token; rs_addr = lk_addr; rs_prefix = None; rs_route = None }))
      | _ -> ())

let app () =
  App.create ~name:app_name ~dicts:[ dict_rib ] [ on_announce; on_withdraw; on_lookup ]

let shards platform =
  List.filter_map
    (function key, V_rib t -> Some (key, t) | _ -> None)
    (Platform.read_dict platform ~app:app_name ~dict:dict_rib)

let best_route platform ~addr =
  let a = Lpm_trie.addr_of_string addr in
  let candidates =
    List.filter_map
      (fun (shard, trie) ->
        if String.equal shard "default" || String.equal shard (shard_of_addr a) then
          Lpm_trie.lookup trie a
        else None)
      (shards platform)
  in
  List.fold_left
    (fun acc (p, routes) ->
      match (acc, best routes) with
      | None, Some r -> Some (Lpm_trie.string_of_prefix p, r)
      | Some (bp, _), Some r
        when p.Lpm_trie.p_len > (Lpm_trie.prefix_of_string bp).Lpm_trie.p_len ->
        Some (Lpm_trie.string_of_prefix p, r)
      | acc, _ -> acc)
    None candidates

let shard_sizes platform =
  List.map (fun (shard, trie) -> (shard, Lpm_trie.cardinal trie)) (shards platform)
  |> List.sort compare
