module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Raft = Beehive_raft.Raft

module Int_map = Map.Make (Int)

module Marks = Set.Make (Beehive_store.Mark)

(* A member's replica of one bee: its state plus the exactly-once
   bookkeeping that rode the same replicated commits — the un-acked
   outbox entries by sequence number and the inbox marks. Failover
   re-seeds a recovered bee's WAL from it, so replay and dedup survive
   the loss of the bee's own log. *)
type replica = {
  state : State.t;
  mutable emits : Message.t Int_map.t;
  mutable inbox : Marks.t;
}

(* One replicated commit: the transaction under its sequence number,
   with its modelled wire size. The group's members share the command,
   so [c_counted], set on its first apply anywhere, counts each write set
   once. *)
type command = {
  c_seq : int;
  c_info : Dispatch.commit_info;
  c_bytes : int;
  mutable c_counted : bool;
}

(* A compaction image: each bee's replica, in bee order. *)
type snapshot = (int * Recovery.replica) list

type group = {
  g_anchor : int;
  mutable g_members : int list;
  g_nodes : (int, (command, snapshot) Raft.t) Hashtbl.t;  (* member hive -> node *)
  g_replicas : (int, (int, replica) Hashtbl.t) Hashtbl.t;
      (* member hive -> (bee -> replica) *)
  mutable g_queue : command list;  (* commands awaiting a leader, oldest last *)
}

(* Members per group: the anchor hive and its successors. *)
let replication_factor = 3

type t = {
  platform : Platform.t;
  engine : Engine.t;
  size : int;
  compact_every : int;
  mutable groups : group array;
  anchors : (int, int) Hashtbl.t;  (* bee -> anchor hive of its group *)
  mutable seq : int;
  mutable committed : int;
  mutable installs : int;
}

(* The modelled wire bytes of replicated bee data: [base], plus dict, key
   and value per write (a deletion carries no value), 16 + the message
   size per outbox entry and 16 per inbox mark. A command sizes on a base
   of 32; a snapshot on 64, summed over its bees. *)
let wire_bytes value_size base writes emits inbox =
  let a =
    List.fold_left
      (fun a (d, k, v) -> a + String.length d + String.length k + value_size v)
      base writes
  in
  List.fold_left (fun a (_, (m : Message.t)) -> a + 16 + m.Message.size) a emits
  + (16 * List.length inbox)

let command_seq c = c.c_seq
let command_bytes c = c.c_bytes
let command_crc c = Printf.sprintf "c%d|%d" c.c_seq c.c_bytes

let replica_table g ~member =
  match Hashtbl.find_opt g.g_replicas member with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 16 in
    Hashtbl.add g.g_replicas member tbl;
    tbl

let image r =
  {
    Recovery.entries = State.snapshot r.state;
    emits = Int_map.bindings r.emits;
    inbox = Marks.elements r.inbox;
  }

let of_image (i : Recovery.replica) =
  {
    state = State.restore i.Recovery.entries;
    emits = Int_map.of_list i.emits;
    inbox = Marks.of_list i.inbox;
  }

let apply_write_set g ~member (ci : Dispatch.commit_info) =
  let tbl = replica_table g ~member in
  let r =
    match Hashtbl.find_opt tbl ci.Dispatch.ci_bee with
    | Some r -> r
    | None ->
      let r = { state = State.create (); emits = Int_map.empty; inbox = Marks.empty } in
      Hashtbl.add tbl ci.Dispatch.ci_bee r;
      r
  in
  List.iter
    (fun (dict, key, w) ->
      match w with
      | Some v -> State.insert r.state [ (dict, key, v) ]
      | None -> ignore (State.extract r.state (Cell.Set.singleton (Cell.cell dict key))))
    ci.Dispatch.ci_writes;
  List.iter (fun (seq, m) -> r.emits <- Int_map.add seq m r.emits) ci.Dispatch.ci_emits;
  List.iter (fun mark -> r.inbox <- Marks.add mark r.inbox) ci.Dispatch.ci_inbox

let live_leader t g =
  List.find_opt
    (fun m ->
      Platform.hive_alive t.platform m
      &&
      match Hashtbl.find_opt g.g_nodes m with
      | Some node -> Raft.is_up node && Raft.role node = Raft.Leader
      | None -> false)
    g.g_members

let flush_queue t g =
  match live_leader t g with
  | None -> ()
  | Some leader_hive ->
    let node = Hashtbl.find g.g_nodes leader_hive in
    let rec go = function
      | [] -> g.g_queue <- []
      | cmd :: rest as cmds -> (
        match Raft.propose node cmd with
        | `Proposed _ -> go rest
        | `Not_leader _ -> g.g_queue <- List.rev cmds)
    in
    go (List.rev g.g_queue)

(* Creates and starts [member]'s node in [g], peered with the group's
   current membership. Factored out of group creation so a drain handoff
   can spawn a fresh replacement node at runtime (its empty log catches
   up through AppendEntries backoff or Install_snapshot). *)
let spawn_member t g ~member =
  let peers = List.filter (fun m -> m <> member) g.g_members in
  (* The node's callbacks reach it through [self], set once it exists. *)
  let self = ref None in
  let node () = Option.get !self in
  let send ~dst rpc =
    (* Raft RPCs ride the raw failable wire: the protocol already
       tolerates loss (retries, elections), so a lost AppendEntries
       just surfaces as Raft-level retransmission. *)
    if Platform.hive_alive t.platform member && Platform.hive_alive t.platform dst then
      Platform.datagram t.platform ~src:member ~dst ~bytes:(Raft.rpc_size (node ()) rpc)
        (fun () ->
          (* Kept through a crash: an RPC on the wire still lands, and
             Raft tolerates stale ones by term. *)
          match Hashtbl.find_opt g.g_nodes dst with
          | Some node when Raft.is_up node -> Raft.receive node rpc
          | Some _ | None -> ())
  in
  (* Snapshot the member's full replica table and compact its Raft log
     once it has applied [compact_every] entries past the last
     snapshot. *)
  let maybe_compact node =
    if Raft.last_applied node - Raft.snapshot_index node >= t.compact_every then begin
      let per_bee =
        Hashtbl.fold (fun bee r acc -> (bee, image r) :: acc) (replica_table g ~member) []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let size =
        List.fold_left
          (fun a (_, (i : Recovery.replica)) ->
            wire_bytes Value.size a i.entries i.emits i.inbox)
          64 per_bee
      in
      Raft.compact node ~upto:(Raft.last_applied node) ~data_size:size ~data:per_bee
    end
  in
  let install ~last_index:_ ~last_term:_ ~data =
    t.installs <- t.installs + 1;
    let tbl = replica_table g ~member in
    Hashtbl.reset tbl;
    List.iter (fun (bee, i) -> Hashtbl.replace tbl bee (of_image i)) data
  in
  let apply (e : command Raft.entry) =
    (* Verify the entry's propose-time CRC before letting it touch a
       replica: a corrupt replicated entry is fail-stopped, never
       applied. *)
    let node = node () in
    if Raft.verify_entry node e then begin
      let c = e.Raft.e_command in
      apply_write_set g ~member c.c_info;
      if not c.c_counted then begin
        c.c_counted <- true;
        t.committed <- t.committed + 1
      end;
      maybe_compact node
    end
  in
  let node =
    Raft.create t.engine ~id:member ~peers ~command_bytes ~command_crc ~install ~send ~apply
  in
  self := Some node;
  Hashtbl.add g.g_nodes member node;
  Raft.start node

let make_group t ~anchor ~members =
  let g =
    {
      g_anchor = anchor;
      g_members = members;
      g_nodes = Hashtbl.create 4;
      g_replicas = Hashtbl.create 4;
      g_queue = [];
    }
  in
  List.iter (fun member -> spawn_member t g ~member) members;
  g

(* ------------------------------------------------------------------ *)
(* Elastic membership                                                  *)
(* ------------------------------------------------------------------ *)

(* Replaces a departing (draining) member in every group it belongs to
   with a live placeable hive outside the group. The replacement node
   starts with an empty log and catches up from the leader through the
   usual backoff / Install_snapshot path; the departing member's node is
   crashed and dropped. *)
let handoff_hive t ~hive =
  let n = Platform.n_hives t.platform in
  Array.iter
    (fun g ->
      if List.mem hive g.g_members then begin
        let candidate =
          let rec scan k =
            if k >= n then None
            else
              let h = (g.g_anchor + k) mod n in
              if Platform.placeable t.platform h && not (List.mem h g.g_members) then
                Some h
              else scan (k + 1)
          in
          scan 0
        in
        g.g_members <- List.filter (fun m -> m <> hive) g.g_members;
        (match Hashtbl.find_opt g.g_nodes hive with
        | Some node ->
          Raft.crash node;
          Hashtbl.remove g.g_nodes hive
        | None -> ());
        (match candidate with
        | Some r -> g.g_members <- g.g_members @ [ r ]
        | None ->
          (* Nowhere to hand off: the group just narrows (a shrunken
             cluster may be smaller than [replication_factor]). *)
          ());
        Hashtbl.iter (fun _ node -> Raft.set_peers node g.g_members) g.g_nodes;
        match candidate with
        | Some r -> spawn_member t g ~member:r
        | None -> ()
      end)
    t.groups

(* A hive joined at runtime: it gets its own group (anchored at its id,
   so the [ci_hive mod groups] anchor assignment stays the identity) made
   of the hive plus its placeable successors. *)
let add_group t h =
  let n = Platform.n_hives t.platform in
  let members =
    let rec collect k acc =
      if List.length acc >= t.size || k >= n then List.rev acc
      else
        let c = (h + k) mod n in
        if c = h || (Platform.placeable t.platform c && not (List.mem c acc)) then
          collect (k + 1) (c :: acc)
        else collect (k + 1) acc
    in
    collect 0 []
  in
  let g = make_group t ~anchor:h ~members in
  t.groups <- Array.append t.groups [| g |]

let commit t (ci : Dispatch.commit_info) =
  (* A bee's replication group is anchored at its first commit's hive;
     the group, not the bee's current placement, defines where replicas
     live. *)
  let anchor =
    match Hashtbl.find_opt t.anchors ci.Dispatch.ci_bee with
    | Some a -> a
    | None ->
      let a = ci.Dispatch.ci_hive mod Array.length t.groups in
      Hashtbl.add t.anchors ci.Dispatch.ci_bee a;
      a
  in
  let g = t.groups.(anchor) in
  let bytes =
    wire_bytes
      (function Some v -> Value.size v | None -> 0)
      32 ci.Dispatch.ci_writes ci.Dispatch.ci_emits ci.Dispatch.ci_inbox
  in
  t.seq <- t.seq + 1;
  g.g_queue <- { c_seq = t.seq; c_info = ci; c_bytes = bytes; c_counted = false } :: g.g_queue;
  flush_queue t g

let anchor_of t ~bee = Hashtbl.find_opt t.anchors bee

(* The most caught-up live member of [g], if any is up. *)
let best_member t g =
  List.fold_left
    (fun acc m ->
      if not (Platform.hive_alive t.platform m) then acc
      else
        match Hashtbl.find_opt g.g_nodes m with
        | Some node when Raft.is_up node -> (
          let score = Raft.last_applied node in
          match acc with
          | Some (_, s) when s >= score -> acc
          | _ -> Some (m, score))
        | Some _ | None -> acc)
    None g.g_members
  |> Option.map fst

(* The bee's replica on the most caught-up live member of its group: the
   recovered bee resumes from its state, replays its committed-but-unacked
   emits and keeps deduplicating redeliveries it applied before. *)
let recover t ~bee =
  Option.bind (anchor_of t ~bee) (fun anchor ->
      let g = t.groups.(anchor) in
      Option.bind (best_member t g) (fun member ->
          Option.bind (Hashtbl.find_opt g.g_replicas member) (fun tbl ->
              Option.map image (Hashtbl.find_opt tbl bee))))

(* An outbox entry was fully acknowledged: every member's replica of it
   can be trimmed (inbox marks are kept — they are the dedup floor). *)
let acked t ~bee ~seq =
  match anchor_of t ~bee with
  | None -> ()
  | Some anchor ->
    Hashtbl.iter
      (fun _ tbl ->
        match Hashtbl.find_opt tbl bee with
        | Some r -> r.emits <- Int_map.remove seq r.emits
        | None -> ())
      t.groups.(anchor).g_replicas

(* Runs [f] on hive [h]'s node in every group it belongs to: the nodes
   crash and restart with their hive's process. *)
let iter_nodes t h f =
  Array.iter
    (fun g ->
      match Hashtbl.find_opt g.g_nodes h with
      | Some node -> f node
      | None -> ())
    t.groups

let install platform ?(compact_every = 64) () =
  let engine = Platform.engine platform in
  let n = Platform.n_hives platform in
  let size = min replication_factor n in
  let t =
    {
      platform;
      engine;
      size;
      compact_every = max 1 compact_every;
      groups = [||];
      anchors = Hashtbl.create 64;
      seq = 0;
      committed = 0;
      installs = 0;
    }
  in
  t.groups <-
    Array.init n (fun anchor ->
        let members = List.init size (fun k -> (anchor + k) mod n) in
        make_group t ~anchor ~members);
  Platform.set_replicator platform
    { Dispatch.commit = commit t; acked = acked t; recover = recover t };
  Platform.on_hive platform (fun h -> function
    | Platform.Crashed -> iter_nodes t h Raft.crash
    | Platform.Restarted -> iter_nodes t h Raft.restart
    | Platform.Added -> add_group t h
    (* A draining hive's group memberships move at once: the replacements'
       fresh nodes catch up (Install_snapshot) while the bees evacuate.
       Decommission is the safety net for a hive retired without a drain:
       no group may keep referencing it. *)
    | Platform.Draining | Platform.Decommissioned -> handoff_hive t ~hive:h);
  (* Retry queued proposals until a leader exists. *)
  ignore
    (Engine.every engine (Simtime.of_ms 100) (fun () ->
         Array.iter (fun g -> if g.g_queue <> [] then flush_queue t g) t.groups));
  t

let group_members t ~hive = t.groups.(hive mod Array.length t.groups).g_members

let group_leader t ~hive =
  live_leader t t.groups.(hive mod Array.length t.groups)

let replicated_commands t = t.committed
let snapshot_installs t = t.installs

let verify_member_logs t =
  Array.for_all
    (fun g ->
      Hashtbl.fold (fun _ node ok -> ok && Raft.verify_log node) g.g_nodes true)
    t.groups

let member_snapshot_index t ~hive ~member =
  let g = t.groups.(hive mod Array.length t.groups) in
  match Hashtbl.find_opt g.g_nodes member with
  | Some node -> Raft.snapshot_index node
  | None -> 0

let member_node t ~hive ~member =
  Hashtbl.find_opt t.groups.(hive mod Array.length t.groups).g_nodes member

let member_log_entries t ~hive ~member =
  match member_node t ~hive ~member with
  | Some node -> Raft.log_entries node
  | None -> []

let member_commit_index t ~hive ~member =
  match member_node t ~hive ~member with
  | Some node -> Raft.commit_index node
  | None -> 0

let replica_entries t ~member ~bee =
  Array.find_map
    (fun g ->
      Option.bind (Hashtbl.find_opt g.g_replicas member) (fun tbl -> Hashtbl.find_opt tbl bee))
    t.groups
  |> Option.fold ~none:[] ~some:(fun r -> State.snapshot r.state)
