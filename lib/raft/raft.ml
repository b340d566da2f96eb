module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng

type 'c entry = {
  e_term : int;
  e_index : int;
  e_command : 'c;
  e_crc : int;
}

type ('c, 's) rpc =
  | Request_vote of {
      rv_term : int;
      rv_candidate : int;
      rv_last_log_index : int;
      rv_last_log_term : int;
    }
  | Vote of { v_term : int; v_voter : int; v_granted : bool }
  | Append_entries of {
      ae_term : int;
      ae_leader : int;
      ae_prev_index : int;
      ae_prev_term : int;
      ae_entries : 'c entry list;
      ae_commit : int;
    }
  | Append_reply of {
      ar_term : int;
      ar_follower : int;
      ar_success : bool;
      ar_match : int;
    }
  | Install_snapshot of {
      is_term : int;
      is_leader : int;
      is_last_index : int;
      is_last_term : int;
      is_data : 's;
      is_data_size : int;
    }

let election_timeout_min = Simtime.of_ms 150
let election_timeout_max = Simtime.of_ms 300
let heartbeat_every = Simtime.of_ms 50

type role =
  | Follower
  | Candidate
  | Leader

type ('c, 's) t = {
  engine : Engine.t;
  node_id : int;
  mutable peers : int list;
  command_bytes : 'c -> int;
  command_crc : 'c -> string;
  send : dst:int -> ('c, 's) rpc -> unit;
  apply_fn : 'c entry -> unit;
  rng : Rng.t;
  install_cb : last_index:int -> last_term:int -> data:'s -> unit;
  (* persistent state (survives crash/restart) *)
  mutable term : int;
  mutable voted_for : int option;
  mutable log : 'c entry array;  (* log.(i) has e_index = snap_index + i + 1 *)
  mutable log_len : int;
  (* log-compaction state: entries up to snap_index live only in the
     snapshot; snap_data is the caller's state-machine image and its
     wire size, [None] until the first compaction or install (persistent,
     like the log) *)
  mutable snap_index : int;
  mutable snap_term : int;
  mutable snap_data : ('s * int) option;
  (* volatile *)
  mutable node_role : role;
  mutable commit : int;
  mutable applied : int;
  mutable up : bool;
  mutable votes : int list;  (* voters granted this candidacy *)
  mutable leader : int option;
  (* leader volatile *)
  next_index : (int, int) Hashtbl.t;
  match_index : (int, int) Hashtbl.t;
  (* timers *)
  mutable election_timer : Engine.handle;  (* [Engine.none] when unset *)
  mutable heartbeat_timer : Engine.handle;
}

let create engine ~id ~peers ~command_bytes ~command_crc ~install ~send ~apply =
  {
    engine;
    node_id = id;
    peers;
    command_bytes;
    command_crc;
    send;
    apply_fn = apply;
    rng = Rng.split (Engine.rng engine);
    install_cb = install;
    term = 0;
    voted_for = None;
    log = [||];
    log_len = 0;
    snap_index = 0;
    snap_term = 0;
    snap_data = None;
    node_role = Follower;
    commit = 0;
    applied = 0;
    up = false;
    votes = [];
    leader = None;
    next_index = Hashtbl.create 8;
    match_index = Hashtbl.create 8;
    election_timer = Engine.none;
    heartbeat_timer = Engine.none;
  }

let id t = t.node_id
let role t = t.node_role
let current_term t = t.term
let commit_index t = t.commit
let last_applied t = t.applied
let last_log_index t = t.snap_index + t.log_len
let is_up t = t.up
let snapshot_index t = t.snap_index

let log_entries t = Array.to_list (Array.sub t.log 0 t.log_len)

let rpc_size t = function
  | Request_vote _ -> 32
  | Vote _ -> 24
  | Append_entries { ae_entries; _ } ->
    40 + List.fold_left (fun a e -> a + 16 + t.command_bytes e.e_command) 0 ae_entries
  | Append_reply _ -> 28
  | Install_snapshot { is_data_size; _ } -> 48 + is_data_size

let entry_crc t ~term ~index command =
  Beehive_sim.Crc32.string (Printf.sprintf "%d|%d|%s" term index (t.command_crc command))

let verify_entry t e = e.e_crc = entry_crc t ~term:e.e_term ~index:e.e_index e.e_command

let verify_log t = List.for_all (verify_entry t) (log_entries t)

(* Log positions are absolute indices; the array only holds entries past
   the snapshot, so slot [i - snap_index - 1] is index [i]. *)
let entry_at t i =
  let j = i - t.snap_index in
  if j >= 1 && j <= t.log_len then Some t.log.(j - 1) else None

let term_at t i =
  if i = t.snap_index then t.snap_term
  else match entry_at t i with Some e -> e.e_term | None -> 0

let append_log t e =
  if t.log_len = Array.length t.log then begin
    let bigger = Array.make (max 64 (2 * t.log_len)) e in
    Array.blit t.log 0 bigger 0 t.log_len;
    t.log <- bigger
  end;
  t.log.(t.log_len) <- e;
  t.log_len <- t.log_len + 1

(* [len] is an absolute index: keep entries up to and including it. *)
let truncate_log t len = t.log_len <- max 0 (len - t.snap_index)

let compact t ~upto ~data_size ~data =
  let upto = min upto t.applied in
  if upto > t.snap_index then begin
    let term = term_at t upto in
    let drop = upto - t.snap_index in
    let keep = t.log_len - drop in
    if keep > 0 then Array.blit t.log drop t.log 0 keep;
    t.log_len <- keep;
    t.snap_index <- upto;
    t.snap_term <- term;
    t.snap_data <- Some (data, data_size)
  end

let majority t = ((List.length t.peers + 1) / 2) + 1

let cancel_timer t timer = ignore (Engine.cancel t.engine timer)

let apply_up_to t target =
  while t.applied < target do
    t.applied <- t.applied + 1;
    match entry_at t t.applied with
    | Some e -> t.apply_fn e
    | None -> failwith "raft: applying past end of log"
  done

(* ------------------------------------------------------------------ *)
(* Role transitions                                                     *)
(* ------------------------------------------------------------------ *)

let rec reset_election_timer t =
  cancel_timer t t.election_timer;
  let lo = Simtime.to_us election_timeout_min in
  let hi = Simtime.to_us election_timeout_max in
  let timeout = Simtime.of_us (lo + Rng.int t.rng (max 1 (hi - lo))) in
  t.election_timer <-
    Engine.schedule_after t.engine timeout (fun () -> if t.up then start_election t)

and become_follower t ~term =
  if term > t.term then begin
    t.term <- term;
    t.voted_for <- None
  end;
  if t.node_role = Leader then begin
    cancel_timer t t.heartbeat_timer;
    t.heartbeat_timer <- Engine.none
  end;
  t.node_role <- Follower;
  t.votes <- [];
  reset_election_timer t

and start_election t =
  t.term <- t.term + 1;
  t.node_role <- Candidate;
  t.voted_for <- Some t.node_id;
  t.votes <- [ t.node_id ];
  t.leader <- None;
  reset_election_timer t;
  let last = last_log_index t in
  List.iter
    (fun peer ->
      t.send ~dst:peer
        (Request_vote
           {
             rv_term = t.term;
             rv_candidate = t.node_id;
             rv_last_log_index = last;
             rv_last_log_term = term_at t last;
           }))
    t.peers;
  (* single-node cluster wins immediately *)
  if List.length t.votes >= majority t then become_leader t

and become_leader t =
  t.node_role <- Leader;
  t.leader <- Some t.node_id;
  cancel_timer t t.election_timer;
  t.election_timer <- Engine.none;
  Hashtbl.reset t.next_index;
  Hashtbl.reset t.match_index;
  List.iter
    (fun peer ->
      Hashtbl.replace t.next_index peer (last_log_index t + 1);
      Hashtbl.replace t.match_index peer 0)
    t.peers;
  send_heartbeats t;
  cancel_timer t t.heartbeat_timer;
  t.heartbeat_timer <-
    Engine.every t.engine heartbeat_every (fun () ->
        if t.up && t.node_role = Leader then send_heartbeats t)

and send_heartbeats t = List.iter (fun peer -> send_append t peer) t.peers

and send_append t peer =
  let next =
    Option.value ~default:(last_log_index t + 1) (Hashtbl.find_opt t.next_index peer)
  in
  match t.snap_data with
  | Some (is_data, is_data_size) when next <= t.snap_index ->
    (* The follower needs entries we have compacted away: ship the
       snapshot instead (InstallSnapshot, Raft paper section 7). *)
    t.send ~dst:peer
      (Install_snapshot
         {
           is_term = t.term;
           is_leader = t.node_id;
           is_last_index = t.snap_index;
           is_last_term = t.snap_term;
           is_data;
           is_data_size;
         })
  | Some _ | None ->
    let prev = next - 1 in
    let entries = ref [] in
    for i = last_log_index t downto next do
      entries := t.log.(i - t.snap_index - 1) :: !entries
    done;
    t.send ~dst:peer
      (Append_entries
         {
           ae_term = t.term;
           ae_leader = t.node_id;
           ae_prev_index = prev;
           ae_prev_term = term_at t prev;
           ae_entries = !entries;
           ae_commit = t.commit;
         })

(* Leader: advance commit to the highest current-term index replicated on
   a majority (Raft's commit restriction, figure 8 of the Raft paper). *)
and advance_commit t =
  if t.node_role = Leader then begin
    let candidate = ref t.commit in
    for n = t.commit + 1 to last_log_index t do
      if term_at t n = t.term then begin
        let count =
          1
          + List.length
              (List.filter
                 (fun peer ->
                   Option.value ~default:0 (Hashtbl.find_opt t.match_index peer) >= n)
                 t.peers)
        in
        if count >= majority t then candidate := n
      end
    done;
    if !candidate > t.commit then begin
      t.commit <- !candidate;
      apply_up_to t t.commit
    end
  end

(* ------------------------------------------------------------------ *)
(* RPC handling                                                         *)
(* ------------------------------------------------------------------ *)

let handle_request_vote t ~rv_term ~rv_candidate ~rv_last_log_index ~rv_last_log_term =
  if rv_term > t.term then become_follower t ~term:rv_term;
  let up_to_date =
    let my_last = last_log_index t in
    let my_last_term = term_at t my_last in
    rv_last_log_term > my_last_term
    || (rv_last_log_term = my_last_term && rv_last_log_index >= my_last)
  in
  let grant =
    rv_term = t.term
    && up_to_date
    && (match t.voted_for with None -> true | Some c -> c = rv_candidate)
  in
  if grant then begin
    t.voted_for <- Some rv_candidate;
    reset_election_timer t
  end;
  t.send ~dst:rv_candidate (Vote { v_term = t.term; v_voter = t.node_id; v_granted = grant })

let handle_vote t ~v_term ~v_voter ~v_granted =
  if v_term > t.term then become_follower t ~term:v_term
  else if t.node_role = Candidate && v_term = t.term && v_granted then begin
    if not (List.mem v_voter t.votes) then t.votes <- v_voter :: t.votes;
    if List.length t.votes >= majority t then become_leader t
  end

let handle_append_entries t ~ae_term ~ae_leader ~ae_prev_index ~ae_prev_term ~ae_entries
    ~ae_commit =
  if ae_term > t.term || (ae_term = t.term && t.node_role = Candidate) then
    become_follower t ~term:ae_term;
  if ae_term < t.term then
    t.send ~dst:ae_leader
      (Append_reply
         { ar_term = t.term; ar_follower = t.node_id; ar_success = false; ar_match = 0 })
  else begin
    t.leader <- Some ae_leader;
    reset_election_timer t;
    let consistent =
      ae_prev_index = 0
      || (ae_prev_index <= last_log_index t && term_at t ae_prev_index = ae_prev_term)
    in
    if not consistent then
      t.send ~dst:ae_leader
        (Append_reply
           { ar_term = t.term; ar_follower = t.node_id; ar_success = false; ar_match = 0 })
    else begin
      (* Append, truncating on conflict. Entries at or below the snapshot
         index are already covered by the snapshot and are skipped. *)
      List.iter
        (fun (e : _ entry) ->
          if e.e_index > t.snap_index then
            match entry_at t e.e_index with
            | Some existing when existing.e_term = e.e_term -> ()
            | Some _ ->
              truncate_log t (e.e_index - 1);
              append_log t e
            | None ->
              if e.e_index = last_log_index t + 1 then append_log t e
              else failwith "raft: gap in append")
        ae_entries;
      let match_idx =
        match ae_entries with
        | [] -> ae_prev_index
        | _ -> (List.nth ae_entries (List.length ae_entries - 1)).e_index
      in
      if ae_commit > t.commit then begin
        t.commit <- min ae_commit (last_log_index t);
        apply_up_to t t.commit
      end;
      t.send ~dst:ae_leader
        (Append_reply
           { ar_term = t.term; ar_follower = t.node_id; ar_success = true; ar_match = match_idx })
    end
  end

let handle_append_reply t ~ar_term ~ar_follower ~ar_success ~ar_match =
  if ar_term > t.term then become_follower t ~term:ar_term
  else if t.node_role = Leader && ar_term = t.term then
    if ar_success then begin
      Hashtbl.replace t.match_index ar_follower
        (max ar_match (Option.value ~default:0 (Hashtbl.find_opt t.match_index ar_follower)));
      Hashtbl.replace t.next_index ar_follower (ar_match + 1);
      advance_commit t
    end
    else begin
      (* Back off and retry immediately. *)
      let next = Option.value ~default:2 (Hashtbl.find_opt t.next_index ar_follower) in
      Hashtbl.replace t.next_index ar_follower (max 1 (next - 1));
      send_append t ar_follower
    end

let handle_install_snapshot t ~is_term ~is_leader ~is_last_index ~is_last_term ~is_data
    ~is_data_size =
  if is_term > t.term || (is_term = t.term && t.node_role = Candidate) then
    become_follower t ~term:is_term;
  if is_term < t.term then
    t.send ~dst:is_leader
      (Append_reply
         { ar_term = t.term; ar_follower = t.node_id; ar_success = false; ar_match = 0 })
  else begin
    t.leader <- Some is_leader;
    reset_election_timer t;
    if is_last_index > t.snap_index then begin
      (* Retain any log suffix extending past the snapshot whose entry at
         the snapshot index agrees with it; otherwise the snapshot
         replaces the whole log. *)
      (match entry_at t is_last_index with
      | Some e when e.e_term = is_last_term ->
        let drop = is_last_index - t.snap_index in
        let keep = t.log_len - drop in
        if keep > 0 then Array.blit t.log drop t.log 0 keep;
        t.log_len <- keep
      | _ -> t.log_len <- 0);
      t.snap_index <- is_last_index;
      t.snap_term <- is_last_term;
      t.snap_data <- Some (is_data, is_data_size);
      (* Jump the state machine to the snapshot only when it is ahead of
         what we have already applied. *)
      if is_last_index > t.applied then begin
        t.install_cb ~last_index:is_last_index ~last_term:is_last_term ~data:is_data;
        t.applied <- is_last_index
      end;
      t.commit <- max t.commit is_last_index
    end;
    (* Reuse the append-reply path for the ack: the leader resumes log
       replication from snap_index + 1. *)
    t.send ~dst:is_leader
      (Append_reply
         {
           ar_term = t.term;
           ar_follower = t.node_id;
           ar_success = true;
           ar_match = t.snap_index;
         })
  end

let receive t rpc =
  if t.up then
    match rpc with
    | Request_vote { rv_term; rv_candidate; rv_last_log_index; rv_last_log_term } ->
      handle_request_vote t ~rv_term ~rv_candidate ~rv_last_log_index ~rv_last_log_term
    | Vote { v_term; v_voter; v_granted } -> handle_vote t ~v_term ~v_voter ~v_granted
    | Append_entries { ae_term; ae_leader; ae_prev_index; ae_prev_term; ae_entries; ae_commit }
      ->
      handle_append_entries t ~ae_term ~ae_leader ~ae_prev_index ~ae_prev_term ~ae_entries
        ~ae_commit
    | Append_reply { ar_term; ar_follower; ar_success; ar_match } ->
      handle_append_reply t ~ar_term ~ar_follower ~ar_success ~ar_match
    | Install_snapshot { is_term; is_leader; is_last_index; is_last_term; is_data; is_data_size }
      ->
      handle_install_snapshot t ~is_term ~is_leader ~is_last_index ~is_last_term ~is_data
        ~is_data_size

let start t =
  if not t.up then begin
    t.up <- true;
    t.node_role <- Follower;
    reset_election_timer t
  end

let propose t command =
  if t.node_role <> Leader || not t.up then `Not_leader t.leader
  else begin
    let index = last_log_index t + 1 in
    let e =
      { e_term = t.term; e_index = index; e_command = command;
        e_crc = entry_crc t ~term:t.term ~index command }
    in
    append_log t e;
    send_heartbeats t;
    (* A single-node cluster commits immediately. *)
    advance_commit t;
    `Proposed e.e_index
  end

let crash t =
  if t.up then begin
    t.up <- false;
    cancel_timer t t.election_timer;
    cancel_timer t t.heartbeat_timer;
    t.election_timer <- Engine.none;
    t.heartbeat_timer <- Engine.none;
    t.node_role <- Follower;
    t.votes <- [];
    t.leader <- None;
    (* Volatile state resets; term/vote/log/snapshot persist. Nothing
       before the snapshot can be replayed, so the floor is snap_index. *)
    t.commit <- t.snap_index;
    t.applied <- t.snap_index
  end

let set_peers t peers =
  let peers = List.filter (fun p -> p <> t.node_id) peers in
  t.peers <- peers;
  if t.node_role = Leader then
    (* New peers start with an empty replication cursor; next_index at
       the log tail triggers the usual backoff (or a snapshot ship) to
       bring them up from nothing. *)
    List.iter
      (fun peer ->
        if not (Hashtbl.mem t.next_index peer) then begin
          Hashtbl.replace t.next_index peer (last_log_index t + 1);
          Hashtbl.replace t.match_index peer 0
        end)
      peers

let restart t =
  if not t.up then begin
    t.up <- true;
    t.node_role <- Follower;
    t.leader <- None;
    (* Restore the state machine from the persistent snapshot; committed
       tail entries are re-applied as the leader re-advances our commit. *)
    (match t.snap_data with
    | Some (data, _) ->
      t.install_cb ~last_index:t.snap_index ~last_term:t.snap_term ~data;
      t.commit <- max t.commit t.snap_index;
      t.applied <- max t.applied t.snap_index
    | None -> ());
    reset_election_timer t
  end
