module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Topology = Beehive_net.Topology
module Flow = Beehive_net.Flow
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module Message = Beehive_core.Message

let hop_latency = Simtime.of_us 10
let reply_delay = Simtime.of_us 500
let max_ttl = 64

type cluster = {
  platform : Platform.t;
  topo : Topology.t;
  agents : (int, t) Hashtbl.t;
  dead_links : (int * int, unit) Hashtbl.t;
  mutable delivered : int;
  mutable dropped : int;
}

and t = {
  sw : int;
  cluster : cluster;
  table : Flow_table.t;
  flows : Flow.t array;
  stat_ids : Wire.flow_stats;
      (** the id arrays of every stat reply, built once for [flows];
          its [fs_bytes] is empty *)
  n_ports : int;
  mutable connected : bool;
}

let create_cluster platform topo =
  {
    platform;
    topo;
    agents = Hashtbl.create 64;
    dead_links = Hashtbl.create 8;
    delivered = 0;
    dropped = 0;
  }

let add cluster ~sw ?(flows = [||]) () =
  let n_ports = Topology.degree cluster.topo sw + 1 in
  let ids field = Array.map field flows in
  let stat_ids =
    {
      Wire.fs_flows = ids (fun (f : Flow.t) -> f.Flow.flow_id);
      fs_srcs = ids (fun (f : Flow.t) -> f.Flow.src_switch);
      fs_dsts = ids (fun (f : Flow.t) -> f.Flow.dst_switch);
      fs_bytes = [||];
    }
  in
  let t =
    { sw; cluster; table = Flow_table.create (); flows; stat_ids; n_ports; connected = false }
  in
  Hashtbl.replace cluster.agents sw t;
  t

let link_key a b = (min a b, max a b)
let link_alive cluster a b = not (Hashtbl.mem cluster.dead_links (link_key a b))
let get cluster sw = Hashtbl.find_opt cluster.agents sw
let flow_table t = t.table

let engine t = Platform.engine t.cluster.platform
let now t = Engine.now (engine t)

let inject t ?size ~kind payload =
  Platform.inject t.cluster.platform ~from:(Channels.Switch t.sw) ?size ~kind payload

(* --- wire message handling (driver -> switch) ---------------------- *)

let stat_snapshot t = { t.stat_ids with Wire.fs_bytes = Flow.counters t.flows ~at:(now t) }

let rec forward t ~ttl ~in_port ~src_mac ~dst_mac ~bytes =
  if ttl <= 0 then t.cluster.dropped <- t.cluster.dropped + 1
  else begin
    match Flow_table.lookup t.table ~src_mac ~dst_mac ~in_port with
    | Some entry -> (
      Flow_table.count entry ~bytes:(float_of_int bytes);
      match entry.Flow_table.e_actions with
      | Flow_table.Drop_packet :: _ | [] -> t.cluster.dropped <- t.cluster.dropped + 1
      | Flow_table.To_controller :: _ -> punt t ~in_port ~src_mac ~dst_mac
      | Flow_table.Output port :: _ -> emit_on_port t ~ttl ~port ~src_mac ~dst_mac ~bytes
      | Flow_table.Set_path _ :: _ -> t.cluster.dropped <- t.cluster.dropped + 1)
    | None -> punt t ~in_port ~src_mac ~dst_mac
  end

and punt t ~in_port ~src_mac ~dst_mac =
  inject t ~size:Wire.size_packet_in ~kind:Wire.k_packet_in
    (Wire.Packet_in
       { pi_switch = t.sw; pi_port = in_port; pi_src_mac = src_mac; pi_dst_mac = dst_mac; pi_lldp = None })

and emit_on_port t ~ttl ~port ~src_mac ~dst_mac ~bytes =
  if port >= 100 then
    (* Host port: the packet leaves the fabric. *)
    t.cluster.delivered <- t.cluster.delivered + 1
  else begin
    let neighbors = Topology.neighbors t.cluster.topo t.sw in
    match List.nth_opt neighbors (port - 1) with
    | None -> t.cluster.dropped <- t.cluster.dropped + 1
    | Some next_sw when not (link_alive t.cluster t.sw next_sw) ->
      t.cluster.dropped <- t.cluster.dropped + 1
    | Some next_sw -> (
      match get t.cluster next_sw with
      | None -> t.cluster.dropped <- t.cluster.dropped + 1
      | Some next ->
        let back_port = Topology.port_towards t.cluster.topo ~src:next_sw ~dst:t.sw in
        ignore
          (Engine.schedule_after (engine t) hop_latency (fun () ->
               forward next ~ttl:(ttl - 1) ~in_port:back_port ~src_mac ~dst_mac ~bytes)))
  end

let flood t ~in_port ~src_mac ~dst_mac ~bytes =
  (* Send on every port except the ingress: all switch ports plus the
     host ports that have been observed are approximated by switch ports
     and the well-known host port of the destination's attachment (the
     learning-switch application installs exact entries quickly, so the
     flood path is short-lived). *)
  let n_neighbors = List.length (Topology.neighbors t.cluster.topo t.sw) in
  for port = 1 to n_neighbors do
    if port <> in_port then emit_on_port t ~ttl:max_ttl ~port ~src_mac ~dst_mac ~bytes
  done;
  (* Flood to local host ports (identified by the MAC numbering scheme in
     Topology.attach_hosts: switch * 0x10000 + k + 1). *)
  let owner_sw = Int64.to_int (Int64.div dst_mac 0x10000L) in
  if owner_sw = t.sw then begin
    let k = Int64.to_int (Int64.rem dst_mac 0x10000L) - 1 in
    let port = 100 + k in
    if port <> in_port then emit_on_port t ~ttl:max_ttl ~port ~src_mac ~dst_mac ~bytes
  end

let handle_wire t (msg : Message.t) =
  match msg.Message.payload with
  | Wire.Flow_stat_request _ ->
    let stats = stat_snapshot t in
    ignore
      (Engine.schedule_after (engine t) reply_delay (fun () ->
           inject t
             ~size:(Wire.size_stat_reply (Wire.n_stats stats))
             ~kind:Wire.k_stat_reply
             (Wire.Flow_stat_reply { fsr_switch = t.sw; fsr_stats = stats })))
  | Wire.Flow_mod m ->
    Flow_table.apply t.table m;
    (* Re-routing flow mods re-steer an originating flow's path. *)
    (match (m.Flow_table.fm_command, m.Flow_table.fm_actions) with
    | Flow_table.(Add | Modify), [ Flow_table.Set_path path ] -> (
      match m.Flow_table.fm_match.Flow_table.m_flow_id with
      | Some fid ->
        Array.iter
          (fun (f : Flow.t) -> if f.Flow.flow_id = fid then f.Flow.current_path <- path)
          t.flows
      | None -> ())
    | _ -> ())
  | Wire.Packet_out { po_port; po_in_port; po_dst_mac; _ } ->
    (* Negative port = OFPP_FLOOD; the ingress port is excluded so the
       punt-and-flood wave terminates on loop-free fabrics. *)
    if po_port < 0 then flood t ~in_port:po_in_port ~src_mac:0L ~dst_mac:po_dst_mac ~bytes:64
    else emit_on_port t ~ttl:max_ttl ~port:po_port ~src_mac:0L ~dst_mac:po_dst_mac ~bytes:64
  | Wire.Echo_request _ ->
    inject t ~size:Wire.size_small ~kind:Wire.k_echo_reply (Wire.Echo_reply { ep_switch = t.sw })
  | _ -> ()

let connect t =
  if not t.connected then begin
    t.connected <- true;
    Platform.register_endpoint t.cluster.platform (Channels.Switch t.sw) (handle_wire t);
    inject t ~size:Wire.size_hello ~kind:Wire.k_hello
      (Wire.Hello { h_switch = t.sw; h_n_ports = t.n_ports })
  end

let connect_all cluster ?(stagger = Simtime.of_ms 1) () =
  let sws =
    List.sort Int.compare (Hashtbl.fold (fun sw _ acc -> sw :: acc) cluster.agents [])
  in
  List.iteri
    (fun i sw ->
      match get cluster sw with
      | Some t ->
        let delay = Simtime.of_us (i * Simtime.to_us stagger) in
        ignore (Engine.schedule_after (Platform.engine cluster.platform) delay (fun () -> connect t))
      | None -> ())
    sws

let send_lldp t =
  List.iter
    (fun next_sw ->
      match get t.cluster next_sw with
      | None -> ()
      | Some _ when not (link_alive t.cluster t.sw next_sw) -> ()
      | Some next ->
        let out_port = Topology.port_towards t.cluster.topo ~src:t.sw ~dst:next_sw in
        let in_port = Topology.port_towards t.cluster.topo ~src:next_sw ~dst:t.sw in
        ignore
          (Engine.schedule_after (engine t) hop_latency (fun () ->
               inject next ~size:Wire.size_packet_in ~kind:Wire.k_packet_in
                 (Wire.Packet_in
                    {
                      pi_switch = next.sw;
                      pi_port = in_port;
                      pi_src_mac = 0L;
                      pi_dst_mac = 0L;
                      pi_lldp = Some (t.sw, out_port);
                    }))))
    (Topology.neighbors t.cluster.topo t.sw)

let fail_link cluster a b =
  if not (Topology.is_link cluster.topo a b) then
    invalid_arg "Switch_agent.fail_link: not adjacent";
  if link_alive cluster a b then begin
    Hashtbl.replace cluster.dead_links (link_key a b) ();
    let report sw peer =
      match get cluster sw with
      | Some agent when agent.connected ->
        let port = Topology.port_towards cluster.topo ~src:sw ~dst:peer in
        inject agent ~size:Wire.size_small ~kind:Wire.k_port_status
          (Wire.Port_status { ps_switch = sw; ps_port = port; ps_up = false })
      | Some _ | None -> ()
    in
    report a b;
    report b a
  end

let send_all_lldp cluster =
  Hashtbl.iter (fun _ t -> if t.connected then send_lldp t) cluster.agents

let inject_host_packet t ~in_port ~src_mac ~dst_mac =
  forward t ~ttl:max_ttl ~in_port ~src_mac ~dst_mac ~bytes:1000

let packets_delivered cluster = cluster.delivered
let packets_dropped cluster = cluster.dropped
