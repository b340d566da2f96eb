(* Network substrate: topology, flows, traffic matrix, series, channels. *)

module Topology = Beehive_net.Topology
module Flow = Beehive_net.Flow
module Traffic_matrix = Beehive_net.Traffic_matrix
module Series = Beehive_net.Series
module Channels = Beehive_net.Channels
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng

let test_tree_structure () =
  let t = Topology.tree ~arity:2 ~n_switches:7 in
  Alcotest.(check int) "n" 7 (Topology.n_switches t);
  (* The root has no parent, so its neighbours are its children. *)
  Alcotest.(check (list int)) "root children" [ 1; 2 ] (Topology.neighbors t 0);
  Alcotest.(check (list int)) "parent then children of 1" [ 0; 3; 4 ] (Topology.neighbors t 1);
  Alcotest.(check (list int)) "6 sits at depth 2" [ 0; 2; 6 ] (Topology.path t 0 6)

let test_tree_path () =
  let t = Topology.tree ~arity:2 ~n_switches:15 in
  Alcotest.(check (list int)) "same node" [ 5 ] (Topology.path t 5 5);
  Alcotest.(check (list int)) "to ancestor" [ 7; 3; 1 ] (Topology.path t 7 1);
  Alcotest.(check (list int)) "from ancestor" [ 1; 3; 7 ] (Topology.path t 1 7);
  Alcotest.(check (list int)) "across root" [ 7; 3; 1; 0; 2; 5; 11 ] (Topology.path t 7 11)

let prop_path_valid =
  QCheck.Test.make ~name:"tree path connects endpoints via links" ~count:300
    QCheck.(pair (int_bound 99) (int_bound 99))
    (fun (a, b) ->
      let t = Topology.tree ~arity:3 ~n_switches:100 in
      let p = Topology.path t a b in
      match p with
      | [] -> false
      | first :: _ ->
        let last = List.nth p (List.length p - 1) in
        first = a && last = b
        && (let rec adjacent = function
              | x :: (y :: _ as rest) -> Topology.is_link t x y && adjacent rest
              | [ _ ] | [] -> true
            in
            adjacent p)
        && List.length (List.sort_uniq Int.compare p) = List.length p)

let test_ports () =
  let t = Topology.tree ~arity:2 ~n_switches:7 in
  let port = Topology.port_towards t ~src:1 ~dst:0 in
  Alcotest.(check int) "parent is port 1" 1 port;
  Alcotest.(check int) "first child port" 2 (Topology.port_towards t ~src:1 ~dst:3);
  Alcotest.check_raises "not adjacent" Not_found (fun () ->
      ignore (Topology.port_towards t ~src:3 ~dst:4))

let test_hosts () =
  let t = Topology.tree ~arity:2 ~n_switches:3 in
  let hosts = Topology.attach_hosts t ~per_switch:2 in
  Alcotest.(check int) "count" 6 (Array.length hosts);
  Alcotest.(check int) "attachment" 1 hosts.(2).Topology.attached_to;
  Alcotest.(check bool) "macs unique" true
    (let macs = Array.to_list (Array.map (fun h -> h.Topology.mac) hosts) in
     List.length (List.sort_uniq compare macs) = 6)

let test_flow_generation () =
  let rng = Rng.create 5 in
  let t = Topology.tree ~arity:2 ~n_switches:20 in
  let flows =
    Flow.generate rng t ~per_switch:10 ~hot_fraction:0.2 ~base_rate:100.0 ~hot_rate:1000.0 ()
  in
  Alcotest.(check int) "count" 200 (Array.length flows);
  let hot = Array.to_list flows |> List.filter (Flow.is_hot ~threshold:500.0) in
  Alcotest.(check int) "hot count" 40 (List.length hot);
  Array.iter
    (fun (f : Flow.t) ->
      if f.Flow.src_switch = f.Flow.dst_switch then Alcotest.fail "self flow";
      match f.Flow.current_path with
      | first :: _ ->
        if first <> f.Flow.src_switch then Alcotest.fail "path does not start at src"
      | [] -> Alcotest.fail "empty path")
    flows

let test_flow_stat_bytes () =
  let rng = Rng.create 5 in
  let t = Topology.tree ~arity:2 ~n_switches:4 in
  let flows =
    Flow.generate rng t ~per_switch:1 ~hot_fraction:0.0 ~base_rate:1000.0 ~hot_rate:0.0
      ~start_spread:0.0 ()
  in
  let f = flows.(0) in
  let late = { f with Flow.starts_at = 5.0 } in
  let at2 = Flow.counters [| f; late |] ~at:(Simtime.of_sec 2.0) in
  Alcotest.(check (float 0.01)) "bytes at 2s" 2000.0 at2.(0);
  Alcotest.(check (float 0.01)) "0 before start" 0.0 at2.(1);
  Alcotest.(check (float 0.01)) "counts from start" 3000.0
    (Flow.counters [| late |] ~at:(Simtime.of_sec 8.0)).(0)

(* A switch's stat reply reads every counter at once: the float array it
   returns (n + 1 words) and the one boxed time in seconds, nothing per
   flow. *)
let test_counters_allocation () =
  let rng = Rng.create 5 in
  let t = Topology.tree ~arity:2 ~n_switches:4 in
  let flows =
    Flow.generate rng t ~per_switch:10 ~hot_fraction:0.1 ~base_rate:1000.0 ~hot_rate:1e6
      ~start_spread:4.0 ()
  in
  let n = Array.length flows in
  let at = Simtime.of_sec 2.0 in
  let bytes = ref [||] in
  let words = Helpers.minor_words_of (fun () -> bytes := Flow.counters flows ~at) in
  Alcotest.(check int) "one counter a flow" n (Array.length !bytes);
  if words > float_of_int (n + 3) then
    Alcotest.failf "counters over %d flows allocated %.0f words" n words

let test_matrix_accounting () =
  let m = Traffic_matrix.create 4 in
  Traffic_matrix.add m ~src:0 ~dst:1 ~bytes:100;
  Traffic_matrix.add m ~src:0 ~dst:1 ~bytes:50;
  Traffic_matrix.add m ~src:2 ~dst:2 ~bytes:850;
  Alcotest.(check (float 0.01)) "bytes" 150.0 (Traffic_matrix.bytes m ~src:0 ~dst:1);
  Alcotest.(check (float 0.001)) "locality" 0.85 (Traffic_matrix.locality_fraction m);
  Alcotest.(check (float 0.01)) "total" 1000.0 (Traffic_matrix.total_bytes m);
  Alcotest.(check int) "hotspot" 2 (Traffic_matrix.hotspot_hive m)

let test_matrix_merge_reset () =
  let a = Traffic_matrix.create 2 and b = Traffic_matrix.create 2 in
  Traffic_matrix.add a ~src:0 ~dst:1 ~bytes:10;
  Traffic_matrix.add b ~src:0 ~dst:1 ~bytes:5;
  Traffic_matrix.merge_into ~dst:a b;
  Alcotest.(check (float 0.01)) "merged" 15.0 (Traffic_matrix.bytes a ~src:0 ~dst:1);
  Traffic_matrix.reset a;
  Alcotest.(check (float 0.01)) "reset" 0.0 (Traffic_matrix.total_bytes a)

let prop_matrix_conservation =
  QCheck.Test.make ~name:"matrix total equals sum of rows" ~count:100
    QCheck.(list (triple (int_bound 7) (int_bound 7) (int_bound 1000)))
    (fun adds ->
      let m = Traffic_matrix.create 8 in
      List.iter (fun (s, d, b) -> Traffic_matrix.add m ~src:s ~dst:d ~bytes:b) adds;
      let rows = List.init 8 (fun i -> Traffic_matrix.row_bytes m i) in
      abs_float (List.fold_left ( +. ) 0.0 rows -. Traffic_matrix.total_bytes m) < 1e-6)

let test_series () =
  let s = Series.create ~bucket:(Simtime.of_sec 1.0) in
  Series.add s ~at:(Simtime.of_sec 0.5) 1024;
  Series.add s ~at:(Simtime.of_sec 0.7) 1024;
  Series.add s ~at:(Simtime.of_sec 2.5) 512;
  let rates = Series.rate_kbps s in
  Alcotest.(check int) "3 buckets" 3 (Array.length rates);
  Alcotest.(check (list (float 0.01))) "bucket starts" [ 0.0; 1.0; 2.0 ]
    (Array.to_list (Array.map fst rates));
  Alcotest.(check (float 0.01)) "bucket 0: 2048 B in 1 s" 2.0 (snd rates.(0));
  Alcotest.(check (float 0.01)) "bucket 1 empty" 0.0 (snd rates.(1));
  Alcotest.(check (float 0.01)) "bucket 2" 0.5 (snd rates.(2));
  Alcotest.(check (float 0.01)) "total" 2560.0 (Series.total s)

let test_channels_accounting () =
  let c = Channels.create ~rng:(Rng.create 0) ~n_hives:3 in
  Channels.assign_switch c ~switch:7 ~hive:1;
  Alcotest.(check int) "master" 1 (Channels.master_of c 7);
  (* remote hive-to-hive: matrix + series *)
  let lat = Channels.transfer c ~src:(Channels.Hive 0) ~dst:(Channels.Hive 2) ~bytes:1000 ~now:Simtime.zero in
  let local =
    Channels.transfer (Channels.create ~rng:(Rng.create 0) ~n_hives:1) ~src:(Channels.Hive 0)
      ~dst:(Channels.Hive 0) ~bytes:1000 ~now:Simtime.zero
  in
  Alcotest.(check int) "local latency is 5 us" 5 (Simtime.to_us local);
  Alcotest.(check bool) "remote latency > local" true Simtime.(lat > local);
  Alcotest.(check (float 0.01)) "matrix" 1000.0
    (Traffic_matrix.bytes (Channels.matrix c) ~src:0 ~dst:2);
  (* same hive: diagonal only, no series *)
  ignore (Channels.transfer c ~src:(Channels.Hive 1) ~dst:(Channels.Hive 1) ~bytes:500 ~now:Simtime.zero);
  Alcotest.(check (float 0.01)) "diagonal" 500.0
    (Traffic_matrix.bytes (Channels.matrix c) ~src:1 ~dst:1);
  Alcotest.(check (float 0.01)) "series only remote" 1000.0 (Series.total (Channels.bandwidth c));
  (* switch to its master: not in the matrix *)
  ignore (Channels.transfer c ~src:(Channels.Switch 7) ~dst:(Channels.Hive 1) ~bytes:200 ~now:Simtime.zero);
  Alcotest.(check (float 0.01)) "matrix unchanged" 1500.0
    (Traffic_matrix.total_bytes (Channels.matrix c));
  (* switch to a remote hive crosses the inter-hive channel *)
  ignore (Channels.transfer c ~src:(Channels.Switch 7) ~dst:(Channels.Hive 0) ~bytes:300 ~now:Simtime.zero);
  Alcotest.(check (float 0.01)) "switch remote in matrix" 300.0
    (Traffic_matrix.bytes (Channels.matrix c) ~src:1 ~dst:0);
  Channels.reset_accounting c;
  Alcotest.(check (float 0.01)) "reset" 0.0 (Traffic_matrix.total_bytes (Channels.matrix c))

let suite =
  [
    ( "net",
      [
        Alcotest.test_case "tree structure" `Quick test_tree_structure;
        Alcotest.test_case "tree paths" `Quick test_tree_path;
        QCheck_alcotest.to_alcotest prop_path_valid;
        Alcotest.test_case "ports" `Quick test_ports;
        Alcotest.test_case "hosts" `Quick test_hosts;
        Alcotest.test_case "flow generation" `Quick test_flow_generation;
        Alcotest.test_case "flow stat bytes" `Quick test_flow_stat_bytes;
        Alcotest.test_case "switch counters allocate one array" `Quick test_counters_allocation;
        Alcotest.test_case "matrix accounting" `Quick test_matrix_accounting;
        Alcotest.test_case "matrix merge/reset" `Quick test_matrix_merge_reset;
        QCheck_alcotest.to_alcotest prop_matrix_conservation;
        Alcotest.test_case "series buckets" `Quick test_series;
        Alcotest.test_case "channel accounting" `Quick test_channels_accounting;
      ] );
  ]
