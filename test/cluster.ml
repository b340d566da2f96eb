module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Raft = Beehive_raft.Raft

type t = {
  engine : Engine.t;
  nodes : (string, string) Raft.t array;
  applied : (int * string) list ref array;  (* newest first; reset on restart *)
  mutable groups : int list list option;  (* None = fully connected *)
  mutable drop_rate : float;
  rng : Rng.t;
  mutable sent : int;
  mutable dropped : int;
}

let connected t a b =
  match t.groups with
  | None -> true
  | Some groups -> List.exists (fun g -> List.mem a g && List.mem b g) groups

(* One-way message delay. *)
let latency = Simtime.of_ms 5

let create engine ~n =
  if n <= 0 then invalid_arg "Cluster.create: need at least one node";
  let applied = Array.init n (fun _ -> ref []) in
  let cluster_ref = ref None in
  let make i =
    let peers = List.filter (fun p -> p <> i) (List.init n Fun.id) in
    let send ~dst rpc =
      match !cluster_ref with
      | None -> ()
      | Some t ->
        t.sent <- t.sent + 1;
        if (not (connected t i dst)) || (t.drop_rate > 0.0 && Rng.float t.rng 1.0 < t.drop_rate)
        then t.dropped <- t.dropped + 1
        else
          ignore
            (Engine.schedule_after engine latency (fun () ->
                 Raft.receive t.nodes.(dst) rpc))
    in
    let apply (e : string Raft.entry) =
      applied.(i) := (e.Raft.e_index, e.Raft.e_command) :: !(applied.(i))
    in
    (* The applied lists are the test's state machine; they ignore
       snapshot installs. *)
    let install ~last_index:_ ~last_term:_ ~data:_ = () in
    Raft.create engine ~id:i ~peers ~command_bytes:String.length ~command_crc:Fun.id ~install
      ~send ~apply
  in
  let nodes = Array.init n make in
  let t =
    {
      engine;
      nodes;
      applied;
      groups = None;
      drop_rate = 0.0;
      rng = Rng.split (Engine.rng engine);
      sent = 0;
      dropped = 0;
    }
  in
  cluster_ref := Some t;
  Array.iter Raft.start nodes;
  t

let node t i = t.nodes.(i)
let n t = Array.length t.nodes

let leaders t =
  Array.to_list t.nodes
  |> List.filter (fun node -> Raft.is_up node && Raft.role node = Raft.Leader)
  |> List.map Raft.id

let leader t = match leaders t with [ l ] -> Some l | _ -> None

let propose_anywhere t cmd =
  let rec try_nodes = function
    | [] -> `No_leader
    | node :: rest -> (
      if not (Raft.is_up node) then try_nodes rest
      else
        match Raft.propose node cmd with
        | `Proposed idx -> `Proposed (Raft.id node, idx)
        | `Not_leader _ -> try_nodes rest)
  in
  try_nodes (Array.to_list t.nodes)

let applied t i = List.rev !(t.applied.(i))
let messages_dropped t = t.dropped

let crash t i = Raft.crash t.nodes.(i)

let restart t i =
  (* The state machine rebuilds from the persisted log on restart. *)
  t.applied.(i) := [];
  Raft.restart t.nodes.(i)

let partition t groups = t.groups <- Some groups
let heal t = t.groups <- None
let set_drop_rate t r = t.drop_rate <- r
