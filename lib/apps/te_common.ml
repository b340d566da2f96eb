module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Value = Beehive_core.Value
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Simtime = Beehive_sim.Simtime
module Wire = Beehive_openflow.Wire
module Flow_table = Beehive_openflow.Flow_table

type sample_times = All_at of float | Each of float array

type obs = {
  ob_flows : int array;
  ob_srcs : int array;
  ob_dsts : int array;
  ob_rates : float array;
  ob_last_bytes : float array;
  ob_times : sample_times;
  ob_handled : bool array;
}

type Value.t +=
  | V_obs of obs
  | V_links of int list

let n_obs o = Array.length o.ob_flows
let last_t o i = match o.ob_times with All_at t -> t | Each ts -> ts.(i)

let () =
  Value.register_size (function
    | V_obs o -> Some (8 + (48 * n_obs o))
    | V_links l -> Some (8 + (8 * List.length l))
    | _ -> None)

let no_obs =
  {
    ob_flows = [||];
    ob_srcs = [||];
    ob_dsts = [||];
    ob_rates = [||];
    ob_last_bytes = [||];
    ob_times = Each [||];
    ob_handled = [||];
  }

let k_query_tick = "te.query_tick"
let k_route_tick = "te.route_tick"
let k_traffic_update = "te.traffic_update"

type Message.payload +=
  | Query_tick
  | Route_tick
  | Traffic_update of { tu_flow : int; tu_src : int; tu_dst : int; tu_rate : float }

let rec strictly_ascending (a : int array) i =
  i + 1 >= Array.length a || (a.(i) < a.(i + 1) && strictly_ascending a (i + 1))

let rec equal_from (a : int array) b i =
  i >= Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

let same_flows a b = a == b || (Array.length a = Array.length b && equal_from a b 0)

(* Positions of [flows] in flow order; samples of one flow keep their
   order. *)
let order flows =
  let p = Array.init (Array.length flows) Fun.id in
  Array.stable_sort (fun i j -> Int.compare flows.(i) flows.(j)) p;
  p

(* The common case: the reply samples exactly [prev]'s flows, once each
   and in the same order. Only the rates are new, and one sample time
   for all of them; the byte counters are the reply's own array. A
   flow's rate is its byte delta over the time since its last sample, or
   the old rate when no time has passed. *)
let observe_all ~now prev (stats : Wire.flow_stats) =
  let n = n_obs prev in
  let rates = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let dt = now -. last_t prev i in
    rates.(i) <-
      (if dt > 0.0 then (stats.Wire.fs_bytes.(i) -. prev.ob_last_bytes.(i)) /. dt
       else prev.ob_rates.(i))
  done;
  { prev with ob_rates = rates; ob_last_bytes = stats.Wire.fs_bytes; ob_times = All_at now }

(* Any other reply: one merge of [prev] and the reply, each walked in
   flow order. A flow without a sample is copied; a new flow takes its
   first sample's ids, no rate, and is unhandled; every further sample
   of a flow updates it in turn. *)
let merge_obs ~now prev (stats : Wire.flow_stats) =
  let np = n_obs prev and ns = Wire.n_stats stats in
  let pp = order prev.ob_flows and sp = order stats.Wire.fs_flows in
  let cap = np + ns in
  let flows = Array.make cap 0 and srcs = Array.make cap 0 and dsts = Array.make cap 0 in
  let rates = Array.make cap 0.0 and last_bytes = Array.make cap 0.0 in
  let times = Array.make cap 0.0 and handled = Array.make cap false in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < np || !j < ns do
    let o = !k in
    if !j < ns && (!i >= np || stats.Wire.fs_flows.(sp.(!j)) < prev.ob_flows.(pp.(!i)))
    then begin
      let s = sp.(!j) in
      flows.(o) <- stats.Wire.fs_flows.(s);
      srcs.(o) <- stats.Wire.fs_srcs.(s);
      dsts.(o) <- stats.Wire.fs_dsts.(s);
      last_bytes.(o) <- stats.Wire.fs_bytes.(s);
      times.(o) <- now;
      incr j
    end
    else begin
      let p = pp.(!i) in
      flows.(o) <- prev.ob_flows.(p);
      srcs.(o) <- prev.ob_srcs.(p);
      dsts.(o) <- prev.ob_dsts.(p);
      rates.(o) <- prev.ob_rates.(p);
      last_bytes.(o) <- prev.ob_last_bytes.(p);
      times.(o) <- last_t prev p;
      handled.(o) <- prev.ob_handled.(p);
      incr i
    end;
    while !j < ns && stats.Wire.fs_flows.(sp.(!j)) = flows.(o) do
      let s = sp.(!j) in
      let dt = now -. times.(o) in
      if dt > 0.0 then rates.(o) <- (stats.Wire.fs_bytes.(s) -. last_bytes.(o)) /. dt;
      last_bytes.(o) <- stats.Wire.fs_bytes.(s);
      times.(o) <- now;
      incr j
    done;
    incr k
  done;
  let fit a = if !k = cap then a else Array.sub a 0 !k in
  {
    ob_flows = fit flows;
    ob_srcs = fit srcs;
    ob_dsts = fit dsts;
    ob_rates = fit rates;
    ob_last_bytes = fit last_bytes;
    ob_times = Each (fit times);
    ob_handled = fit handled;
  }

let collect_stats ~now ~prev (stats : Wire.flow_stats) =
  if same_flows prev.ob_flows stats.Wire.fs_flows && strictly_ascending prev.ob_flows 0 then
    observe_all ~now prev stats
  else merge_obs ~now prev stats

let delta = 100_000.0

let hot_flows ~delta obs =
  let hot = ref [] in
  for i = n_obs obs - 1 downto 0 do
    if (not obs.ob_handled.(i)) && obs.ob_rates.(i) > delta then hot := i :: !hot
  done;
  !hot

let traffic_update obs i =
  Traffic_update
    {
      tu_flow = obs.ob_flows.(i);
      tu_src = obs.ob_srcs.(i);
      tu_dst = obs.ob_dsts.(i);
      tu_rate = obs.ob_rates.(i);
    }

let mark_handled obs = function
  | [] -> obs
  | positions ->
    let handled = Array.copy obs.ob_handled in
    List.iter (fun i -> handled.(i) <- true) positions;
    { obs with ob_handled = handled }

let remove_link ctx ~dict ~src ~dst =
  let key = string_of_int src in
  Context.update ctx ~dict ~key (function
    | Some (V_links links) -> Some (V_links (List.filter (fun l -> l <> dst) links))
    | other -> other)

let path_uses_link path ~a ~b =
  let rec go = function
    | x :: (y :: _ as rest) -> (x = a && y = b) || (x = b && y = a) || go rest
    | [ _ ] | [] -> false
  in
  go path

(* [adjacency_of_dict]'s result, refilled in place by each call and made
   anew only when the switch count changes. No handler keeps it past its
   own run, and the engine runs one handler at a time. *)
let adjacency = ref [||]

let adjacency_of_dict ctx ~dict =
  let n = ref 0 in
  Context.iter_dict ctx ~dict (fun key _ -> n := Int.max !n (int_of_string key + 1));
  if Array.length !adjacency = !n then Array.fill !adjacency 0 !n []
  else adjacency := Array.make !n [];
  let adj = !adjacency in
  Context.iter_dict ctx ~dict (fun key v ->
      match v with V_links links -> adj.(int_of_string key) <- links | _ -> ());
  adj

let adjacency_of_edges edges =
  let adj = Array.make (List.fold_left (fun n (a, _) -> Int.max n (a + 1)) 0 edges) [] in
  List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) edges;
  adj

(* [bfs_path]'s parent table and queue, grown to the largest graph
   searched so far. A search resets the parent entries it may read before
   it starts, and reads the queue only where it wrote it; neither array
   escapes a search. *)
type bfs_scratch = { mutable parent : int array; mutable queue : int array }

let scratch = { parent = [||]; queue = [||] }

(* Enqueues [u]'s neighbours not seen yet, in list order, from [tail] on.
   Returns the new tail, or -1 as soon as a neighbour is [dst]. A
   neighbour outside [0, n) has no edges of its own: it can only end the
   search. *)
let rec visit parent queue ~n ~dst u tail = function
  | [] -> tail
  | v :: rest ->
    if v = dst then -1
    else if v >= 0 && v < n && parent.(v) < 0 then begin
      parent.(v) <- u;
      queue.(tail) <- v;
      visit parent queue ~n ~dst u (tail + 1) rest
    end
    else visit parent queue ~n ~dst u tail rest

(* Breadth-first over the queue from [head]; the node whose list names
   [dst], or -1 if none does. *)
let rec search adj parent queue ~dst head tail =
  if head >= tail then -1
  else begin
    let u = queue.(head) in
    let tail = visit parent queue ~n:(Array.length adj) ~dst u tail adj.(u) in
    if tail < 0 then u else search adj parent queue ~dst (head + 1) tail
  end

let rec walk parent ~src v acc =
  if v = src then src :: acc else walk parent ~src parent.(v) (v :: acc)

let bfs_path adj ~src ~dst =
  let n = Array.length adj in
  if src = dst then Some [ src ]
  else if src < 0 || src >= n then None
  else begin
    if Array.length scratch.parent < n then begin
      scratch.parent <- Array.make n 0;
      scratch.queue <- Array.make n 0
    end;
    let { parent; queue } = scratch in
    Array.fill parent 0 n (-1);
    parent.(src) <- src;
    queue.(0) <- src;
    let via = search adj parent queue ~dst 0 1 in
    if via < 0 then None else Some (walk parent ~src via [ dst ])
  end

let reroute ctx adj ~flow ~src ~dst =
  let found = bfs_path adj ~src ~dst in
  (match found with
  | Some path ->
    Context.emit ctx ~size:Wire.size_flow_mod ~kind:Wire.k_app_flow_mod
      (Wire.App_flow_mod
         {
           Flow_table.fm_switch = src;
           fm_command = Flow_table.Add;
           fm_priority = 10;
           fm_match = Flow_table.match_flow flow;
           fm_actions = [ Flow_table.Set_path path ];
         })
  | None -> ());
  found

(* The handlers every design shares. Each keys its dictionary by switch
   id. *)

let key_of_switch = string_of_int

let on_switch_joined ~dict init =
  App.handler ~kind:Wire.k_switch_joined
    ~map:(fun msg ->
      match msg.Message.payload with
      | Wire.Switch_joined { sj_switch; _ } -> Mapping.with_key dict (key_of_switch sj_switch)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Switch_joined { sj_switch; _ } ->
        let key = key_of_switch sj_switch in
        if not (Context.mem ctx ~dict ~key) then Context.set ctx ~dict ~key init
      | _ -> ())

let on_link_discovered ~dict =
  App.handler ~kind:Wire.k_link_discovered
    ~map:(fun msg ->
      match msg.Message.payload with
      | Wire.Link_discovered { ld_src_switch; _ } ->
        Mapping.with_key dict (key_of_switch ld_src_switch)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Link_discovered { ld_src_switch = src; ld_dst_switch = dst; _ } ->
        Context.update ctx ~dict ~key:(key_of_switch src) (fun prev ->
            let links = match prev with Some (V_links l) -> l | Some _ | None -> [] in
            if List.mem dst links then Some (V_links links)
            else Some (V_links (List.sort Int.compare (dst :: links))))
      | _ -> ())

let on_query_tick ~dict =
  App.handler ~kind:k_query_tick
    ~map:(fun _ -> Mapping.Foreach dict)
    (fun ctx _msg ->
      Context.iter_dict ctx ~dict (fun key _ ->
          Context.emit ctx ~size:Wire.size_small ~kind:Wire.k_app_stat_query
            (Wire.Stat_query { sq_switch = int_of_string key })))

let on_stat_reply ~dict ~cost ~hot =
  App.handler
    ~cost:(fun _ -> cost)
    ~kind:Wire.k_app_stat_reply
    ~map:(fun msg ->
      match msg.Message.payload with
      | Wire.Stat_reply { sr_switch; _ } -> Mapping.with_key dict (key_of_switch sr_switch)
      | _ -> Mapping.Drop)
    (fun ctx msg ->
      match msg.Message.payload with
      | Wire.Stat_reply { sr_switch; sr_stats } ->
        let key = key_of_switch sr_switch in
        let prev =
          match Context.get ctx ~dict ~key with
          | Some (V_obs o) -> o
          | Some _ | None -> no_obs
        in
        let now = Simtime.to_sec (Context.now ctx) in
        Context.set ctx ~dict ~key (V_obs (hot ctx sr_switch (collect_stats ~now ~prev sr_stats)))
      | _ -> ())

let every_second ~kind payload =
  App.timer ~kind ~period:(Simtime.of_sec 1.0) ~size:16 (fun ~now:_ -> payload)
