module Value = Beehive_core.Value
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Wire = Beehive_openflow.Wire
module Flow_table = Beehive_openflow.Flow_table

type flow_obs = {
  fo_flow : int;
  fo_src : int;
  fo_dst : int;
  fo_rate : float;
  fo_last_bytes : float;
  fo_last_t : float;
  fo_handled : bool;
}

type Value.t +=
  | V_obs of flow_obs list
  | V_links of int list

let () =
  Value.register_size (function
    | V_obs l -> Some (8 + (48 * List.length l))
    | V_links l -> Some (8 + (8 * List.length l))
    | _ -> None)

let k_query_tick = "te.query_tick"
let k_route_tick = "te.route_tick"
let k_traffic_update = "te.traffic_update"

type Message.payload +=
  | Query_tick
  | Route_tick
  | Traffic_update of { tu_flow : int; tu_src : int; tu_dst : int; tu_rate : float }

(* A flow's next sample: the rate is the byte delta over the time since
   its last sample, or the old rate when no time has passed. *)
let observe ~now o (s : Wire.flow_stat) =
  let dt = now -. o.fo_last_t in
  let rate = if dt > 0.0 then (s.Wire.fs_bytes -. o.fo_last_bytes) /. dt else o.fo_rate in
  { o with fo_rate = rate; fo_last_bytes = s.Wire.fs_bytes; fo_last_t = now }

let first_seen ~now (s : Wire.flow_stat) =
  {
    fo_flow = s.Wire.fs_flow;
    fo_src = s.Wire.fs_src_sw;
    fo_dst = s.Wire.fs_dst_sw;
    fo_rate = 0.0;
    fo_last_bytes = s.Wire.fs_bytes;
    fo_last_t = now;
    fo_handled = false;
  }

(* Merges [stats] into [prev], both in flow order: flows without a
   sample are shared, and each run of samples of one flow updates that
   flow's observation in turn. *)
let[@tail_mod_cons] rec merge_obs ~now prev (stats : Wire.flow_stat list) =
  match (prev, stats) with
  | _, [] -> prev
  | [], s :: rest -> absorb ~now (first_seen ~now s) [] rest
  | o :: prev', s :: rest ->
    if o.fo_flow < s.Wire.fs_flow then o :: merge_obs ~now prev' stats
    else if o.fo_flow = s.Wire.fs_flow then absorb ~now (observe ~now o s) prev' rest
    else absorb ~now (first_seen ~now s) prev rest

and[@tail_mod_cons] absorb ~now o prev = function
  | s :: rest when s.Wire.fs_flow = o.fo_flow -> absorb ~now (observe ~now o s) prev rest
  | stats -> o :: merge_obs ~now prev stats

let rec ascending key = function
  | a :: (b :: _ as rest) -> (key a : int) <= key b && ascending key rest
  | [ _ ] | [] -> true

let collect_stats ~now ~prev stats =
  let by_flow key l =
    if ascending key l then l else List.stable_sort (fun a b -> Int.compare (key a) (key b)) l
  in
  merge_obs ~now
    (by_flow (fun o -> o.fo_flow) prev)
    (by_flow (fun (s : Wire.flow_stat) -> s.Wire.fs_flow) stats)

let hot_flows ~delta obs =
  List.filter (fun o -> (not o.fo_handled) && o.fo_rate > delta) obs

let mark_handled obs = function
  | [] -> obs
  | flows ->
    List.map (fun o -> if List.mem o.fo_flow flows then { o with fo_handled = true } else o) obs

let record_link ctx ~dict ~src ~dst =
  let key = string_of_int src in
  Context.update ctx ~dict ~key (fun prev ->
      let links = match prev with Some (V_links l) -> l | Some _ | None -> [] in
      if List.mem dst links then Some (V_links links)
      else Some (V_links (List.sort Int.compare (dst :: links))))

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

let adjacency_of_dict ctx ~dict =
  let adj = Hashtbl.create 64 in
  Context.iter_dict ctx ~dict (fun key v ->
      match v with
      | V_links links -> Hashtbl.replace adj (int_of_string key) links
      | _ -> ());
  adj

let bfs_path adj ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let parent = Hashtbl.create 64 in
    let queue = Queue.create () in
    Hashtbl.replace parent src src;
    Queue.push src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if not (Hashtbl.mem parent v) then begin
            Hashtbl.replace parent v u;
            if v = dst then found := true else Queue.push v queue
          end)
        (Option.value ~default:[] (Hashtbl.find_opt adj u))
    done;
    if not !found then None
    else begin
      let rec walk v acc =
        if v = src then src :: acc else walk (Hashtbl.find parent v) (v :: acc)
      in
      Some (walk dst [])
    end
  end

let reroute_mod ~flow ~src ~path =
  {
    Flow_table.fm_switch = src;
    fm_command = Flow_table.Add;
    fm_priority = 10;
    fm_match = Flow_table.match_flow flow;
    fm_actions = [ Flow_table.Set_path path ];
  }
