(* Traffic-engineering applications on a small simulated cluster. *)

module Scenario = Beehive_harness.Scenario
module Summary = Beehive_harness.Summary
module Platform = Beehive_core.Platform
module Cell = Beehive_core.Cell
module Simtime = Beehive_sim.Simtime
module Te_naive = Beehive_apps.Te_naive
module Te_decoupled = Beehive_apps.Te_decoupled

let tiny te =
  {
    Scenario.quick_config with
    Scenario.n_hives = 4;
    n_switches = 12;
    flows_per_switch = 10;
    hot_fraction = 0.2;
    flow_start_spread = 3.0;
    warmup = Simtime.of_sec 3.0;
    duration = Simtime.of_sec 6.0;
    te;
  }

let run te =
  let sc = Scenario.build (tiny te) in
  Scenario.run sc;
  sc

let te_bees platform app =
  List.filter
    (fun (v : Platform.bee_view) ->
      String.equal v.Platform.view_app app && not v.Platform.view_is_local)
    (Platform.live_bees platform)

let test_naive_centralizes () =
  let sc = run Scenario.Te_naive in
  let platform = Scenario.platform sc in
  let bees = te_bees platform Te_naive.app_name in
  Alcotest.(check int) "exactly one TE bee (merged)" 1 (List.length bees);
  let bee = List.hd bees in
  (* It owns every switch's stats cell plus the wildcards. *)
  Alcotest.(check bool) "owns the S wildcard" true
    (Cell.Set.mem (Cell.whole Te_naive.dict_stats) bee.Platform.view_cells);
  let owner sw =
    Platform.find_owner platform ~app:Te_naive.app_name
      (Cell.cell Te_naive.dict_stats (string_of_int sw))
  in
  for sw = 0 to 11 do
    Alcotest.(check (option int)) (Printf.sprintf "S[%d]" sw) (Some bee.Platform.view_id) (owner sw)
  done;
  (* And it re-routed hot flows. *)
  let s = Summary.of_scenario sc in
  Alcotest.(check bool) "hot traffic matrix concentrated" true (s.Summary.s_hotspot_share > 0.5)

let test_naive_reroutes_hot_flows () =
  let sc = run Scenario.Te_naive in
  let platform = Scenario.platform sc in
  let bees = te_bees platform Te_naive.app_name in
  let bee = (List.hd bees).Platform.view_id in
  (* Count handled observations in the TE state. *)
  let handled = ref 0 and total = ref 0 in
  List.iter
    (fun (dict, _, v) ->
      if String.equal dict Te_naive.dict_stats then
        match v with
        | Beehive_apps.Te_common.V_obs obs ->
          Array.iter
            (fun h ->
              incr total;
              if h then incr handled)
            obs.Beehive_apps.Te_common.ob_handled
        | _ -> ())
    (Platform.bee_state_entries platform bee);
  Alcotest.(check int) "all flows observed" 120 !total;
  Alcotest.(check bool) "some hot flows handled" true (!handled > 0);
  Alcotest.(check bool) "but not all flows" true (!handled < !total)

let test_decoupled_shards () =
  let sc = run Scenario.Te_decoupled in
  let platform = Scenario.platform sc in
  let bees = te_bees platform Te_decoupled.app_name in
  (* One bee per switch for stats, plus one centralized Route bee. *)
  Alcotest.(check bool) "many bees" true (List.length bees >= 12);
  let stats_owner sw =
    Platform.find_owner platform ~app:Te_decoupled.app_name
      (Cell.cell Te_decoupled.dict_stats (string_of_int sw))
  in
  let owners = List.filter_map stats_owner (List.init 12 Fun.id) in
  Alcotest.(check int) "stats owners are distinct" 12
    (List.length (List.sort_uniq Int.compare owners));
  (* Stats bees sit on their switch's master hive. *)
  List.iteri
    (fun sw bee ->
      let v = Option.get (Platform.bee_view platform bee) in
      Alcotest.(check int)
        (Printf.sprintf "S[%d] local to master" sw)
        (Beehive_net.Channels.master_of (Platform.channels platform) sw)
        v.Platform.view_hive)
    owners;
  (* Route is centralized: one bee owns the routing wildcard. *)
  (match Platform.find_owner platform ~app:Te_decoupled.app_name (Cell.whole Te_decoupled.dict_route) with
  | Some _ -> ()
  | None -> Alcotest.fail "no Route bee");
  Alcotest.(check bool) "reroutes recorded" true (Te_decoupled.rerouted_count platform > 0)

let test_decoupled_locality_beats_naive () =
  let naive = Summary.of_scenario (run Scenario.Te_naive) in
  let dec = Summary.of_scenario (run Scenario.Te_decoupled) in
  Alcotest.(check bool) "decoupled more local" true
    (dec.Summary.s_locality > naive.Summary.s_locality);
  Alcotest.(check bool) "decoupled cheaper" true
    (dec.Summary.s_mean_kbps < naive.Summary.s_mean_kbps)

let test_bfs_path () =
  let adj = [| [ 1; 2 ]; [ 0; 3 ]; [ 0 ]; [ 1 ] |] in
  (match Beehive_apps.Te_common.bfs_path adj ~src:2 ~dst:3 with
  | Some p -> Alcotest.(check (list int)) "shortest path" [ 2; 0; 1; 3 ] p
  | None -> Alcotest.fail "path exists");
  Alcotest.(check bool) "unknown node" true
    (Beehive_apps.Te_common.bfs_path adj ~src:2 ~dst:9 = None);
  (match Beehive_apps.Te_common.bfs_path adj ~src:1 ~dst:1 with
  | Some [ 1 ] -> ()
  | _ -> Alcotest.fail "self path");
  (* Te_external's store keeps edges; each lists its neighbours newest
     first. *)
  Alcotest.(check (array (list int)))
    "adjacency of edges" [| [ 2; 1 ]; [ 3; 0 ]; [ 0 ]; [ 1 ] |]
    (Beehive_apps.Te_common.adjacency_of_edges
       [ (0, 1); (1, 0); (0, 2); (2, 0); (1, 3); (3, 1) ])

(* The [Hashtbl] breadth-first search the array one replaced, kept as
   the reference: same neighbour order, so the same paths. *)
let reference_bfs_path adj ~src ~dst =
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

(* A random graph on [n] switches whose lists may repeat a neighbour,
   loop to the switch itself, name switch [n] (outside the array), or be
   empty; the endpoints range over [-2, n + 3], so negative ids, absent
   switches and [src = dst] all come up. *)
let random_graph n =
  QCheck.Gen.(
    triple
      (array_size (return n) (list_size (0 -- 4) (int_bound n)))
      (int_range (-2) (n + 3))
      (int_range (-2) (n + 3)))

let bfs_path_matches (adj, src, dst) =
  let n = Array.length adj in
  let table = Hashtbl.create 16 in
  Array.iteri (Hashtbl.replace table) adj;
  let got = Beehive_apps.Te_common.bfs_path adj ~src ~dst in
  got = reference_bfs_path table ~src ~dst
  && (src = dst || (src >= 0 && src < n && dst >= 0 && dst <= n) || got = None)

(* Each case searches a large graph, then a small one, then the large
   one again: a search must not see what the one before it left in the
   scratch, whichever of the two was larger. *)
let prop_bfs_path_matches_reference =
  let gen =
    QCheck.Gen.(
      int_bound 10 >>= fun small ->
      int_range (small + 1) 20 >>= fun large -> pair (random_graph small) (random_graph large))
  in
  QCheck.Test.make ~name:"bfs_path matches the Hashtbl reference" ~count:2000
    (QCheck.make gen)
    (fun (small, large) ->
      bfs_path_matches large && bfs_path_matches small && bfs_path_matches large)

(* Route's search on the paper's 160-switch tree, every ordered pair:
   past the first search it allocates only the path it returns, three
   words a node, plus the [Some] and a few words more. *)
let test_bfs_path_allocation () =
  let topo = Beehive_net.Topology.tree ~arity:4 ~n_switches:160 in
  let adj = Array.init 160 (Beehive_net.Topology.neighbors topo) in
  ignore (Beehive_apps.Te_common.bfs_path adj ~src:0 ~dst:159);
  let found = ref None in
  for src = 0 to 159 do
    for dst = 0 to 159 do
      if src <> dst then begin
        let search () = found := Beehive_apps.Te_common.bfs_path adj ~src ~dst in
        let words = Helpers.minor_words_of search in
        match !found with
        | None -> Alcotest.failf "no path %d -> %d" src dst
        | Some path ->
          let nodes = List.length path in
          if words > float_of_int ((3 * nodes) + 8) then
            Alcotest.failf "bfs_path %d -> %d (%d nodes) allocated %.0f words" src dst nodes
              words
      end
    done
  done

(* A handler's context holding each of [dicts], given as (name,
   entries), whole. *)
let context_over dicts =
  let module State = Beehive_core.State in
  let module Message = Beehive_core.Message in
  let st = State.create () in
  let tx = State.begin_tx st in
  List.iter
    (fun (dict, entries) -> List.iter (fun (key, v) -> State.tx_set tx ~dict ~key v) entries)
    dicts;
  State.commit tx;
  let env =
    Beehive_core.Context.env
      ~src:(Message.From_bee { bee = 1; hive = 0; app = Te_decoupled.app_name })
      ~now:(fun () -> Simtime.zero)
      ~rng:(Beehive_sim.Rng.create 1)
      ~late:(fun _ _ ?size:_ ~kind:_ _ -> ())
  in
  Beehive_core.Context.make env ~state:st ~read_shadow:None
    ~allowed:(Beehive_core.Mapping.whole_dicts (List.map fst dicts))
    ~message:
      (Message.make ~kind:"test.noop" ~src:Message.From_system ~sent_at:Simtime.zero
         (Helpers.Noop 0))

(* The topology dictionary of a random graph on [n] switches: switch
   [n - 1] always has a neighbour list, any other may have none or hold
   a value that is not one. *)
let random_topology n =
  QCheck.Gen.(
    array_size (return n) (pair (int_bound 3) (list_size (0 -- 4) (int_bound n)))
    >|= fun a ->
    List.concat
      (List.mapi
         (fun sw (shape, links) ->
           let key = string_of_int sw in
           if sw = n - 1 || shape >= 2 then [ (key, Beehive_apps.Te_common.V_links links) ]
           else if shape = 1 then [ (key, Beehive_core.Value.V_int sw) ]
           else [])
         (Array.to_list a)))

(* The adjacency [adjacency_of_dict] built before it reused its array:
   a fresh one per call. *)
let fresh_adjacency entries =
  let n = List.fold_left (fun n (key, _) -> Int.max n (int_of_string key + 1)) 0 entries in
  let adj = Array.make n [] in
  List.iter
    (fun (key, v) ->
      match v with
      | Beehive_apps.Te_common.V_links links -> adj.(int_of_string key) <- links
      | _ -> ())
    entries;
  adj

let adjacency_matches (entries, src, dst) =
  let module Te = Beehive_apps.Te_common in
  let adj = Te.adjacency_of_dict (context_over [ ("topology", entries) ]) ~dict:"topology" in
  let fresh = fresh_adjacency entries in
  adj = fresh && Te.bfs_path adj ~src ~dst = Te.bfs_path fresh ~src ~dst

(* Each case reads a small topology, a large one, another small one of
   the same size and the first again: the reused array must neither
   keep a larger graph's length nor a same-sized graph's lists. *)
let prop_adjacency_matches_fresh =
  let topology n =
    QCheck.Gen.(triple (random_topology n) (int_range (-2) (n + 3)) (int_range (-2) (n + 3)))
  in
  let gen =
    QCheck.Gen.(
      int_bound 10 >>= fun small ->
      int_range (small + 1) 20 >>= fun large ->
      triple (topology small) (topology large) (topology small))
  in
  QCheck.Test.make ~name:"adjacency_of_dict matches a fresh build" ~count:2000
    (QCheck.make gen)
    (fun (small, large, small') ->
      adjacency_matches small && adjacency_matches large && adjacency_matches small'
      && adjacency_matches small)

(* Words one Route traffic update allocates on the 160-switch tree, for
   a fresh flow from switch 0 to switch 159 (OCaml 5.1.1): the key, the
   path, the FlowMod and its message, the route record and the closures
   that walk the topology. A fresh adjacency array alone is 161 words. *)
let route_update_words_bound = 110.0

let test_route_update_allocation () =
  let module Te = Beehive_apps.Te_common in
  let module Message = Beehive_core.Message in
  let topo = Beehive_net.Topology.tree ~arity:4 ~n_switches:160 in
  let topology =
    List.init 160 (fun sw -> (string_of_int sw, Te.V_links (Beehive_net.Topology.neighbors topo sw)))
  in
  let route =
    List.find
      (fun (h : Beehive_core.App.handler) -> String.equal h.on_kind Te.k_traffic_update)
      (Te_decoupled.app ()).Beehive_core.App.handlers
  in
  let update flow =
    let ctx = context_over [ ("topology", topology); (Te_decoupled.dict_route, []) ] in
    let msg =
      Message.make ~kind:Te.k_traffic_update ~src:Message.From_system ~sent_at:Simtime.zero
        (Te.Traffic_update { tu_flow = flow; tu_src = 0; tu_dst = 159; tu_rate = 1e6 })
    in
    (ctx, msg)
  in
  (* The first update sizes the scratch arrays. *)
  let ctx, msg = update 1000 in
  route.rcv ctx msg;
  let ctx, msg = update 1001 in
  let words = Helpers.minor_words_of (fun () -> route.rcv ctx msg) in
  Alcotest.(check int) "one FlowMod" 1 (List.length (Beehive_core.Context.emitted ctx));
  Alcotest.(check bool) "route recorded" true
    (Beehive_core.Context.mem ctx ~dict:Te_decoupled.dict_route ~key:"1001");
  if words > route_update_words_bound then
    Alcotest.failf "a Route update allocated %.0f words (bound %.0f)" words
      route_update_words_bound

let test_collect_stats_rates () =
  let open Beehive_apps.Te_common in
  let stat ~flow ~bytes =
    {
      Beehive_openflow.Wire.fs_flows = [| flow |];
      fs_srcs = [| 0 |];
      fs_dsts = [| 1 |];
      fs_bytes = [| bytes |];
    }
  in
  let obs1 = collect_stats ~now:1.0 ~prev:no_obs (stat ~flow:7 ~bytes:1000.0) in
  Alcotest.(check int) "one obs" 1 (n_obs obs1);
  Alcotest.(check (float 0.01)) "no rate on first sample" 0.0 obs1.ob_rates.(0);
  let obs2 = collect_stats ~now:3.0 ~prev:obs1 (stat ~flow:7 ~bytes:5000.0) in
  Alcotest.(check (float 0.01)) "rate = delta/dt" 2000.0 obs2.ob_rates.(0);
  let hot = hot_flows ~delta:1000.0 obs2 in
  Alcotest.(check int) "hot" 1 (List.length hot);
  let marked = mark_handled obs2 hot in
  Alcotest.(check int) "handled flows not hot again" 0
    (List.length (hot_flows ~delta:1000.0 marked))

(* A switch's steady-state reply over 40 flows, every flow sampled in
   flow order: [collect_stats] allocates the new rates (41 words), the
   record (8) and its one sample time (2), but no array of sample
   times, which would be 41 words more. *)
let collect_words_bound = 51.0

let test_collect_stats_allocation () =
  let open Beehive_apps.Te_common in
  let n = 40 in
  let flows = Array.init n Fun.id in
  let reply k =
    {
      Beehive_openflow.Wire.fs_flows = flows;
      fs_srcs = Array.make n 0;
      fs_dsts = Array.make n 1;
      fs_bytes = Array.init n (fun i -> float_of_int ((k * 100_000) + i));
    }
  in
  let first = collect_stats ~now:1.0 ~prev:no_obs (reply 1) in
  let prev = collect_stats ~now:2.0 ~prev:first (reply 2) in
  let stats = reply 3 and now = 3.0 in
  let next = ref prev in
  let words = Helpers.minor_words_of (fun () -> next := collect_stats ~now ~prev stats) in
  Alcotest.(check bool) "one sample time" true (!next.ob_times = All_at 3.0);
  Alcotest.(check (float 0.0)) "rate" 100_000.0 !next.ob_rates.(n - 1);
  if words > collect_words_bound then
    Alcotest.failf "a steady-state reply allocated %.0f words (bound %.0f)" words
      collect_words_bound

(* The oracle's view of a reply and of the observations: one record per
   sample and per flow, as both were before they were packed. *)
type flow_stat = { fs_flow : int; fs_src_sw : int; fs_dst_sw : int; fs_bytes : float }

type flow_obs = {
  fo_flow : int;
  fo_src : int;
  fo_dst : int;
  fo_rate : float;
  fo_last_bytes : float;
  fo_last_t : float;
  fo_handled : bool;
}

let pack_reply stats =
  let field f = Array.of_list (List.map f stats) in
  {
    Beehive_openflow.Wire.fs_flows = field (fun s -> s.fs_flow);
    fs_srcs = field (fun s -> s.fs_src_sw);
    fs_dsts = field (fun s -> s.fs_dst_sw);
    fs_bytes = field (fun s -> s.fs_bytes);
  }

(* Observations whose flows were all sampled at one time keep that one
   time, as a full reply leaves them; any others keep a time per flow. *)
let pack_obs obs =
  let field f = Array.of_list (List.map f obs) in
  {
    Beehive_apps.Te_common.ob_flows = field (fun o -> o.fo_flow);
    ob_srcs = field (fun o -> o.fo_src);
    ob_dsts = field (fun o -> o.fo_dst);
    ob_rates = field (fun o -> o.fo_rate);
    ob_last_bytes = field (fun o -> o.fo_last_bytes);
    ob_times =
      (match obs with
      | o :: rest when List.for_all (fun r -> r.fo_last_t = o.fo_last_t) rest -> All_at o.fo_last_t
      | _ -> Each (field (fun o -> o.fo_last_t)));
    ob_handled = field (fun o -> o.fo_handled);
  }

let unpack_obs (o : Beehive_apps.Te_common.obs) =
  List.init (Beehive_apps.Te_common.n_obs o) (fun i ->
      {
        fo_flow = o.ob_flows.(i);
        fo_src = o.ob_srcs.(i);
        fo_dst = o.ob_dsts.(i);
        fo_rate = o.ob_rates.(i);
        fo_last_bytes = o.ob_last_bytes.(i);
        fo_last_t = Beehive_apps.Te_common.last_t o i;
        fo_handled = o.ob_handled.(i);
      })

(* The table-based [collect_stats] the single merge replaced, kept as
   the oracle: every sample looks its flow up in a table seeded from
   [prev], and the table is sorted by flow at the end. *)
let oracle_collect_stats ~now ~(prev : flow_obs list) stats =
  let by_flow = Hashtbl.create 16 in
  List.iter (fun (o : flow_obs) -> Hashtbl.replace by_flow o.fo_flow o) prev;
  List.iter
    (fun (s : flow_stat) ->
      let obs =
        match Hashtbl.find_opt by_flow s.fs_flow with
        | Some o ->
          let dt = now -. o.fo_last_t in
          let rate =
            if dt > 0.0 then (s.fs_bytes -. o.fo_last_bytes) /. dt else o.fo_rate
          in
          { o with fo_rate = rate; fo_last_bytes = s.fs_bytes; fo_last_t = now }
        | None ->
          {
            fo_flow = s.fs_flow;
            fo_src = s.fs_src_sw;
            fo_dst = s.fs_dst_sw;
            fo_rate = 0.0;
            fo_last_bytes = s.fs_bytes;
            fo_last_t = now;
            fo_handled = false;
          }
      in
      Hashtbl.replace by_flow s.fs_flow obs)
    stats;
  Hashtbl.fold (fun _ o acc -> o :: acc) by_flow []
  |> List.sort (fun a b -> Int.compare a.fo_flow b.fo_flow)

let oracle_mark_handled obs flows =
  List.map (fun o -> if List.mem o.fo_flow flows then { o with fo_handled = true } else o) obs

(* [collect_stats] on the packed forms, read back as records. *)
let packed_collect_stats ~now ~prev stats =
  unpack_obs
    (Beehive_apps.Te_common.collect_stats ~now ~prev:(pack_obs prev) (pack_reply stats))

let sample flow bytes = { fs_flow = flow; fs_src_sw = flow mod 3; fs_dst_sw = 9; fs_bytes = bytes }

let test_collect_stats_cases () =
  let module Te = Beehive_apps.Te_common in
  let prev =
    oracle_mark_handled
      (oracle_collect_stats ~now:1.0 ~prev:[] [ sample 1 100.0; sample 2 200.0; sample 3 300.0 ])
      [ 2 ]
  in
  let check name ~now stats =
    let got = packed_collect_stats ~now ~prev stats in
    Alcotest.(check bool) name true (got = oracle_collect_stats ~now ~prev stats);
    got
  in
  let rates obs = List.map (fun o -> (o.fo_flow, o.fo_rate)) obs in
  let same = check "same flows" ~now:2.0 [ sample 1 150.0; sample 2 400.0; sample 3 300.0 ] in
  Alcotest.(check (list (pair int (float 0.0))))
    "rates" [ (1, 50.0); (2, 200.0); (3, 0.0) ] (rates same);
  let unsorted =
    check "unsorted reply" ~now:2.0 [ sample 3 300.0; sample 1 150.0; sample 2 400.0 ]
  in
  Alcotest.(check bool) "unsorted reply is sorted" true (unsorted = same);
  let twice = check "two samples of one flow" ~now:3.0 [ sample 1 300.0; sample 1 900.0 ] in
  (match twice with
  | { fo_rate; fo_last_bytes; fo_last_t; _ } :: _ ->
    Alcotest.(check (float 0.0)) "first sample sets the rate" 100.0 fo_rate;
    Alcotest.(check (float 0.0)) "last sample sets the counter" 900.0 fo_last_bytes;
    Alcotest.(check (float 0.0)) "sampled now" 3.0 fo_last_t
  | [] -> Alcotest.fail "no observations");
  let fresh = check "new flow" ~now:2.0 [ sample 1 150.0; sample 4 70.0; sample 4 90.0 ] in
  (match List.find_opt (fun o -> o.fo_flow = 4) fresh with
  | Some o ->
    Alcotest.(check bool) "new flow: no rate, unhandled, ids from its sample" true
      (o.fo_rate = 0.0 && (not o.fo_handled) && o.fo_src = 1 && o.fo_dst = 9
     && o.fo_last_bytes = 90.0)
  | None -> Alcotest.fail "new flow missing");
  let vanished = check "vanished flow" ~now:2.0 [ sample 1 150.0; sample 3 600.0 ] in
  Alcotest.(check bool) "vanished flow kept as it was" true
    (List.find (fun o -> o.fo_flow = 2) vanished = List.find (fun o -> o.fo_flow = 2) prev);
  (* An unchanged flow set reuses the id and handled arrays. *)
  let packed = pack_obs prev in
  let next =
    Te.collect_stats ~now:2.0 ~prev:packed
      { (pack_reply [ sample 1 1.0; sample 2 2.0; sample 3 3.0 ]) with fs_flows = packed.ob_flows }
  in
  Alcotest.(check bool) "id arrays shared" true
    (next.ob_flows == packed.ob_flows && next.ob_srcs == packed.ob_srcs
   && next.ob_dsts == packed.ob_dsts && next.ob_handled == packed.ob_handled)

(* Random replies: flows 0..11 in any order, a flow possibly repeated,
   switch ids varying between samples of one flow. *)
let gen_reply =
  let open QCheck.Gen in
  list_size (0 -- 16)
    (map3
       (fun flow (src, dst) bytes ->
         { fs_flow = flow; fs_src_sw = src; fs_dst_sw = dst; fs_bytes = float_of_int bytes })
       (int_bound 11) (pair (int_bound 3) (int_bound 3)) (int_bound 100_000))

(* [prev] comes from two oracle rounds (at [t0], then [t1] >= [t0]) with
   some flows marked handled, and is sometimes handed over reversed; the
   checked round runs at [t1] itself or later, so both the zero-interval
   and the rate branch are taken. Half the checked replies sample
   exactly [prev]'s flows, in [prev]'s order. *)
let prop_collect_stats_matches_oracle =
  let open Beehive_apps.Te_common in
  let gen =
    QCheck.Gen.(
      tup4
        (triple gen_reply gen_reply bool)
        (list_size (0 -- 4) (int_bound 11))
        (pair (oneofl [ 0.0; 0.5; 2.0 ]) (oneofl [ 0.0; 0.25; 1.0 ]))
        (triple (oneofl [ 0.0; 1.0; 2.5 ]) gen_reply bool))
  in
  QCheck.Test.make ~name:"collect_stats matches the table oracle" ~count:2000
    (QCheck.make gen)
    (fun ((s0, s1, reversed), handled, (t0, step), (later, stats, resample)) ->
      let t1 = t0 +. step in
      let prev =
        oracle_mark_handled
          (oracle_collect_stats ~now:t1 ~prev:(oracle_collect_stats ~now:t0 ~prev:[] s0) s1)
          handled
      in
      let prev = if reversed then List.rev prev else prev in
      let stats =
        if resample then
          List.mapi (fun i o -> sample o.fo_flow (o.fo_last_bytes +. float_of_int (i * 1000))) prev
        else stats
      in
      let now = t1 +. later in
      let got = collect_stats ~now ~prev:(pack_obs prev) (pack_reply stats) in
      unpack_obs got = oracle_collect_stats ~now ~prev stats && mark_handled got [] == got)

(* Every TE design installs the same routes: SNAP's promise (one program,
   any state placement, the same behaviour) as a differential test. Each
   design runs the quick scenario; the last FlowMod it sends for each
   (switch, match) is its final route table. Te_external takes part: its
   store applies each topology update at the shard, so no link event
   overwrites another. *)
module Wire = Beehive_openflow.Wire
module Flow_table = Beehive_openflow.Flow_table

(* The designs compared with naive TE: (name, te, optimize,
   adversarial_pin). *)
let te_designs =
  [
    ("decoupled", Scenario.Te_decoupled, false, false);
    ("optimized", Scenario.Te_decoupled, true, false);
    ("optimized, pinned to hive 0", Scenario.Te_decoupled, true, true);
    ("external", Scenario.Te_external, false, false);
  ]

(* The final FlowMods of one run, in (switch, match) order, and the
   number of hot flows the scenario drew. [before_run] may schedule
   extra work on the built scenario. *)
let final_flow_mods ?(before_run = ignore) ~seed (te, optimize, adversarial_pin) =
  let sc =
    Scenario.build { Scenario.quick_config with Scenario.seed; te; optimize; adversarial_pin }
  in
  let last = Hashtbl.create 128 in
  Platform.on_emit (Scenario.platform sc) (fun ~parent:_ ~child ~emitter:_ ->
      match child.Beehive_core.Message.payload with
      | Wire.App_flow_mod fm -> Hashtbl.replace last (fm.Flow_table.fm_switch, fm.fm_match) fm
      | _ -> ());
  before_run sc;
  Scenario.run sc;
  ( List.sort compare (Hashtbl.fold (fun k fm acc -> (k, fm) :: acc) last []),
    Helpers.hot_flow_count sc )

(* Why [got] is not [reference]'s route table, or not one route per hot
   flow. *)
let route_mismatch ~reference (got, hot) =
  if List.length got <> hot then
    Some (Printf.sprintf "%d FlowMods for %d hot flows" (List.length got) hot)
  else if got <> reference then Some "FlowMods differ from naive TE's"
  else None

let test_designs_install_same_routes () =
  List.iter
    (fun seed ->
      let reference, hot = final_flow_mods ~seed (Scenario.Te_naive, false, false) in
      List.iter
        (fun (name, te, optimize, pin) ->
          match route_mismatch ~reference (final_flow_mods ~seed (te, optimize, pin)) with
          | Some why -> Alcotest.failf "seed %d, %s: %s" seed name why
          | None -> ())
        te_designs;
      Alcotest.(check bool) (Printf.sprintf "seed %d has hot flows" seed) true (hot > 0))
    [ 1; 2; 3 ]

(* Self-test: a decoupled run that also routes one stray flow, which no
   switch carries, must not pass the comparison. *)
let test_stray_route_caught () =
  let reference, _ = final_flow_mods ~seed:1 (Scenario.Te_naive, false, false) in
  let stray sc =
    let platform = Scenario.platform sc in
    let stray_flow =
      1 + Array.fold_left (fun m f -> Int.max m f.Beehive_net.Flow.flow_id) 0 (Scenario.flows sc)
    in
    ignore
      (Beehive_sim.Engine.schedule_at (Scenario.engine sc) (Simtime.of_sec 4.0) (fun () ->
           Platform.inject platform ~from:(Beehive_net.Channels.Hive 0)
             ~kind:Beehive_apps.Te_common.k_traffic_update
             (Beehive_apps.Te_common.Traffic_update
                {
                  tu_flow = stray_flow;
                  tu_src = 0;
                  tu_dst = Scenario.quick_config.Scenario.n_switches - 1;
                  tu_rate = 1e6;
                })))
  in
  let got, hot =
    final_flow_mods ~before_run:stray ~seed:1 (Scenario.Te_decoupled, false, false)
  in
  Alcotest.(check int) "the stray flow got a FlowMod" (hot + 1) (List.length got);
  Alcotest.(check bool) "the comparison fails" true
    (Option.is_some (route_mismatch ~reference (got, hot)))

let suite =
  [
    ( "apps.te",
      [
        Alcotest.test_case "naive TE centralizes onto one bee" `Slow test_naive_centralizes;
        Alcotest.test_case "naive TE reroutes hot flows" `Slow test_naive_reroutes_hot_flows;
        Alcotest.test_case "decoupled TE shards per switch" `Slow test_decoupled_shards;
        Alcotest.test_case "decoupled beats naive on locality" `Slow
          test_decoupled_locality_beats_naive;
        Alcotest.test_case "bfs path" `Quick test_bfs_path;
        QCheck_alcotest.to_alcotest prop_bfs_path_matches_reference;
        Alcotest.test_case "path search allocates only its path" `Quick test_bfs_path_allocation;
        QCheck_alcotest.to_alcotest prop_adjacency_matches_fresh;
        Alcotest.test_case "Route update reuses the adjacency" `Quick
          test_route_update_allocation;
        Alcotest.test_case "collect_stats rates" `Quick test_collect_stats_rates;
        Alcotest.test_case "collect_stats merge cases" `Quick test_collect_stats_cases;
        Alcotest.test_case "steady-state collect_stats keeps one sample time" `Quick
          test_collect_stats_allocation;
        QCheck_alcotest.to_alcotest prop_collect_stats_matches_oracle;
        Alcotest.test_case "TE designs install the same routes" `Slow
          test_designs_install_same_routes;
        Alcotest.test_case "TE differential catches a stray route" `Slow
          test_stray_route_caught;
      ] );
  ]
