module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels
module Traffic_matrix = Beehive_net.Traffic_matrix
module Platform = Beehive_core.Platform
module Store = Beehive_store.Store
module Registry = Beehive_core.Registry
module Cell = Beehive_core.Cell
module Value = Beehive_core.Value
module Raft_replication = Beehive_core.Raft_replication
module Failure_detector = Beehive_core.Failure_detector
module Raft = Beehive_raft.Raft
module Membership = Beehive_elastic.Membership

type ctx = {
  cx_engine : Engine.t;
  cx_platform : Platform.t;
  cx_app : string;
  cx_dict : string;
  cx_puts : (string, int) Hashtbl.t;
  cx_raft : Raft_replication.t option;
  cx_detector : Failure_detector.t option;
  cx_membership : Membership.t option;
  cx_crashes : bool;
  cx_fwd : (string * string) option;
      (* outbox workload: forwarding app name and its journal dict *)
  cx_poisons : int ref;  (* poison injections accepted by the workload *)
}

type violation = {
  v_monitor : string;
  v_detail : string;
  v_at : Beehive_sim.Simtime.t;
}

exception Violation of violation

let pp_violation ppf v =
  Format.fprintf ppf "%s violated at %a: %s" v.v_monitor Simtime.pp v.v_at v.v_detail

type phase =
  | Continuous
  | Final

type t = {
  m_name : string;
  m_phase : phase;
  m_check : ctx -> string option;
}

let check m ctx =
  match m.m_check ctx with
  | None -> ()
  | Some detail ->
    raise
      (Violation
         { v_monitor = m.m_name; v_detail = detail; v_at = Engine.now ctx.cx_engine })

(* The counter a key's owner currently holds in [app]'s [dict], or
   [None] when the key has no registered owner. *)
let observed_in ctx ~app ~dict key =
  match Platform.find_owner ctx.cx_platform ~app (Cell.cell dict key) with
  | None -> None
  | Some bee ->
    let v = Platform.read ctx.cx_platform ~app ~dict ~key in
    Some (bee, match v with Some (Value.V_int n) -> n | _ -> 0)

let observed ctx key = observed_in ctx ~app:ctx.cx_app ~dict:ctx.cx_dict key

let model_keys ctx =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) ctx.cx_puts [] |> List.sort compare

let single_owner =
  {
    m_name = "single-owner";
    m_phase = Continuous;
    m_check =
      (fun ctx ->
        match Registry.check_invariant (Platform.registry ctx.cx_platform) with
        | () -> None
        | exception Failure msg -> Some msg);
  }

let conservation =
  {
    m_name = "byte-conservation";
    m_phase = Continuous;
    m_check =
      (fun ctx ->
        let m = Channels.matrix (Platform.channels ctx.cx_platform) in
        let n = Platform.n_hives ctx.cx_platform in
        let sum f = List.fold_left ( +. ) 0.0 (List.init n f) in
        let rows = sum (Traffic_matrix.row_bytes m) in
        let cols = sum (Traffic_matrix.col_bytes m) in
        let total = Traffic_matrix.total_bytes m in
        let loc = Traffic_matrix.locality_fraction m in
        if abs_float (rows -. total) > 1e-6 then
          Some (Printf.sprintf "row sum %.1f <> total %.1f" rows total)
        else if abs_float (cols -. total) > 1e-6 then
          Some (Printf.sprintf "col sum %.1f <> total %.1f" cols total)
        else if loc < 0.0 || loc > 1.0 then
          Some (Printf.sprintf "locality fraction %.3f outside [0,1]" loc)
        else None);
  }

(* A key's counter above its injected puts means a message was applied
   twice. Valid under any fault mix. *)
let no_duplication =
  {
    m_name = "no-duplication";
    m_phase = Continuous;
    m_check =
      (fun ctx ->
        List.find_map
          (fun (key, puts) ->
            match observed ctx key with
            | Some (bee, n) when n > puts ->
              Some
                (Printf.sprintf "key %s: bee %d holds %d, only %d puts injected" key
                   bee n puts)
            | Some _ | None -> None)
          (model_keys ctx));
  }

(* Exact delivery conservation. A [Fail] legitimately drops in-flight and
   un-fsynced work, so it holds only on crash-free runs. *)
let no_loss =
  {
    m_name = "no-loss";
    m_phase = Final;
    m_check =
      (fun ctx ->
        if ctx.cx_crashes then None
        else
          List.find_map
            (fun (key, puts) ->
              match observed ctx key with
              | None -> Some (Printf.sprintf "key %s: %d puts but no owner" key puts)
              | Some (bee, n) when n <> puts ->
                Some
                  (Printf.sprintf "key %s: bee %d applied %d of %d puts" key bee n
                     puts)
              | Some _ -> None)
            (model_keys ctx));
  }

(* With durability on, a crash never loses cell ownership: every key that
   ever had a put keeps a registered owner. *)
let durable_ownership =
  {
    m_name = "durable-ownership";
    m_phase = Final;
    m_check =
      (fun ctx ->
        if Platform.store ctx.cx_platform = None then None
        else
          List.find_map
            (fun (key, puts) ->
              match observed ctx key with
              | None ->
                (* With the outbox workload a put is only *accepted* once
                   the forwarding stage journals it: a put whose ingress
                   transaction died un-fsynced with its hive never
                   happened (the client saw no ack), so the kv side owing
                   nothing is correct crash semantics. The journal is the
                   acceptance ground truth; journaled-but-ownerless keys
                   still fire (and exactly-once reports them too). *)
                let accepted =
                  match ctx.cx_fwd with
                  | None -> true
                  | Some (fwd_app, journal) -> (
                    match observed_in ctx ~app:fwd_app ~dict:journal key with
                    | Some (_, j) -> j > 0
                    | None -> false)
                in
                if accepted then
                  Some
                    (Printf.sprintf
                       "key %s lost its owner despite durability (%d puts)" key puts)
                else None
              | Some _ -> None)
            (model_keys ctx));
  }

(* Committed prefixes of any two group members must agree entry-by-entry
   above both snapshot points — Raft's State Machine Safety, checked
   structurally on the logs. Two entries agree when their terms and their
   commands' identities, (sequence number, bytes), are equal. *)
let same_command c1 c2 =
  Raft_replication.command_seq c1 = Raft_replication.command_seq c2
  && Raft_replication.command_bytes c1 = Raft_replication.command_bytes c2

let raft_prefix =
  {
    m_name = "raft-log-prefix";
    m_phase = Continuous;
    m_check =
      (fun ctx ->
        match ctx.cx_raft with
        | None -> None
        | Some rep ->
          let n = Platform.n_hives ctx.cx_platform in
          let result = ref None in
          for anchor = 0 to n - 1 do
            if !result = None then begin
              let members = Raft_replication.group_members rep ~hive:anchor in
              let view m =
                ( m,
                  Raft_replication.member_commit_index rep ~hive:anchor ~member:m,
                  Raft_replication.member_snapshot_index rep ~hive:anchor ~member:m,
                  Raft_replication.member_log_entries rep ~hive:anchor ~member:m )
              in
              let views = List.map view members in
              let rec pairs = function
                | [] -> []
                | v :: rest -> List.map (fun w -> (v, w)) rest @ pairs rest
              in
              List.iter
                (fun ((m1, c1, s1, log1), (m2, c2, s2, log2)) ->
                  if !result = None then begin
                    let lim = min c1 c2 in
                    let entry log i =
                      List.find_opt (fun e -> e.Raft.e_index = i) log
                    in
                    let i = ref (max s1 s2 + 1) in
                    while !result = None && !i <= lim do
                      (match (entry log1 !i, entry log2 !i) with
                      | Some e1, Some e2
                        when e1.Raft.e_term <> e2.Raft.e_term
                             || not (same_command e1.Raft.e_command e2.Raft.e_command)
                        ->
                        result :=
                          Some
                            (Printf.sprintf
                               "group %d: members %d/%d diverge at committed index \
                                %d (terms %d vs %d)"
                               anchor m1 m2 !i e1.Raft.e_term e2.Raft.e_term)
                      | None, Some _ | Some _, None ->
                        result :=
                          Some
                            (Printf.sprintf
                               "group %d: committed index %d missing from one of \
                                members %d/%d"
                               anchor !i m1 m2)
                      | _ -> ());
                      incr i
                    done
                  end)
                (pairs views)
            end
          done;
          !result);
  }

(* After the final heal and drain, the cluster must have re-converged on
   a single healthy membership: every hive back in, no residual
   suspicion, no bee left fenced or mid-pause, and every key owned on an
   alive hive. This is what "a partitioned-then-healed hive rejoins
   without double ownership" looks like as an invariant. *)
let membership_convergence =
  {
    m_name = "membership-convergence";
    m_phase = Final;
    m_check =
      (fun ctx ->
        let p = ctx.cx_platform in
        let n = Platform.n_hives p in
        let dead = ref None in
        for h = 0 to n - 1 do
          (* Decommissioned hives left on purpose — they are not members
             anymore and owe the cluster nothing. *)
          if
            !dead = None
            && (not (Platform.hive_decommissioned p h))
            && not (Platform.hive_alive p h)
          then
            dead :=
              Some
                (Printf.sprintf "hive %d still %s after the final heal" h
                   (if Platform.hive_crashed p h then "crashed" else "fenced"))
        done;
        match !dead with
        | Some _ as v -> v
        | None -> (
          match ctx.cx_detector with
          | Some det when Failure_detector.suspected det <> [] ->
            Some
              (Printf.sprintf "detector still suspects hives [%s] after heal + drain"
                 (String.concat "; "
                    (List.map string_of_int (Failure_detector.suspected det))))
          | _ ->
            let paused = Platform.paused_bees p in
            if paused > 0 then
              Some (Printf.sprintf "%d bees still paused after heal + drain" paused)
            else
              List.find_map
                (fun (key, _) ->
                  match observed ctx key with
                  | Some (bee, _) -> (
                    match Platform.bee_view p bee with
                    | Some v when not (Platform.hive_alive p v.Platform.view_hive) ->
                      Some
                        (Printf.sprintf
                           "key %s owned by bee %d on non-member hive %d" key bee
                           v.Platform.view_hive)
                    | _ -> None)
                  | None -> None (* missing owners are no-loss/durability findings *))
                (model_keys ctx)));
  }

(* Every drain that started must have run to completion by the time the
   run quiesces, and completion must mean what it claims: zero cells on
   the hive, zero in-flight inbound transfers, and — when the drain asked
   for it — the hive actually decommissioned. The "drain loses nothing"
   half is covered by no-loss/durable-ownership running alongside. *)
let drain_completeness =
  {
    m_name = "drain-completeness";
    m_phase = Final;
    m_check =
      (fun ctx ->
        match ctx.cx_membership with
        | None -> None
        | Some mem -> (
          let p = ctx.cx_platform in
          let reg = Platform.registry p in
          match Membership.draining mem with
          | h :: _ ->
            Some
              (Printf.sprintf
                 "drain of hive %d never completed (%d cells, %d inbound transfers)"
                 h
                 (Registry.cells_on_hive reg ~hive:h)
                 (Platform.inbound_transfers p h))
          | [] ->
            let check_hive h =
              if not (Membership.drain_completed mem h) then None
              else
                let cells = Registry.cells_on_hive reg ~hive:h in
                let inbound = Platform.inbound_transfers p h in
                if cells > 0 && Platform.hive_decommissioned p h then
                  Some
                    (Printf.sprintf "hive %d decommissioned but still owns %d cells"
                       h cells)
                else if inbound > 0 && not (Platform.placeable p h) then
                  Some
                    (Printf.sprintf
                       "hive %d finished draining with %d inbound transfers in \
                        flight"
                       h inbound)
                else if
                  Membership.auto_decommission mem h && not (Platform.hive_decommissioned p h)
                then
                  Some
                    (Printf.sprintf
                       "hive %d's drain completed with auto-decommission but the \
                        hive is still %s"
                       h (Beehive_core.Hives.label (Platform.hive_state p h)))
                else None
            in
            let rec scan h =
              if h >= Platform.n_hives p then None
              else match check_hive h with Some _ as v -> v | None -> scan (h + 1)
            in
            scan 0));
  }

(* End-to-end exactly-once over the outbox workload: every journaled
   forward at the first app emitted exactly one put, and that put applied
   exactly once at the kv app. J(k) = C(k) catches both sides — a lost
   committed emit (C < J, e.g. replay skipped after restart) and a
   double-applied replay (C > J, e.g. the durable inbox forgotten).
   Quarantined poisons never journal and never emit, so they cancel out
   of both sides by construction. *)
let exactly_once =
  {
    m_name = "exactly-once";
    m_phase = Final;
    m_check =
      (fun ctx ->
        match ctx.cx_fwd with
        | None -> None
        | Some (fwd_app, journal) ->
          List.find_map
            (fun (key, _) ->
              match observed_in ctx ~app:fwd_app ~dict:journal key with
              | None -> None (* never forwarded: nothing to compare *)
              | Some (fbee, j) -> (
                match observed ctx key with
                | None when j > 0 ->
                  Some
                    (Printf.sprintf
                       "key %s: bee %d journaled %d forwards but the put side has \
                        no owner"
                       key fbee j)
                | Some (bee, c) when c <> j ->
                  Some
                    (Printf.sprintf
                       "key %s: %d journaled forwards but bee %d applied %d puts \
                        (%s)"
                       key j bee c
                       (if c < j then "committed emit lost" else "replay applied twice"))
                | Some _ | None -> None))
            (model_keys ctx));
  }

(* Poison containment bookkeeping: on a crash-free run every accepted
   poison — and nothing else — must end in quarantine. Crashes can lose a
   poison before its retries exhaust (it was never durable), so only the
   crash-free equality is exact, mirroring no-loss. *)
let quarantine_accounting =
  {
    m_name = "quarantine-accounting";
    m_phase = Final;
    m_check =
      (fun ctx ->
        match ctx.cx_fwd with
        | None -> None
        | Some _ ->
          if ctx.cx_crashes then None
          else
            let q = Platform.total_quarantined ctx.cx_platform in
            let p = !(ctx.cx_poisons) in
            if q <> p then
              Some
                (Printf.sprintf
                   "%d messages quarantined but %d poisons injected (%s)" q p
                   (if q < p then "a poison escaped containment"
                    else "a healthy message was quarantined"))
            else None);
  }

(* No byte of storage damage may ever be served silently. The oracle
   ([Platform.broken_chains]) re-derives every live bee's verdict from
   the actual frame bytes, ignoring the production checksum switch; any
   bee it flags that the production side has neither repaired nor marked
   suspect is corruption the platform would happily serve as truth. Runs
   after a forced full scrub pass so detection is judged on what the
   scrubber can see, not on where its tick budget happened to stop. Also
   re-verifies every Raft member log entry against its propose-time
   checksum. *)
let no_silent_corruption =
  {
    m_name = "no-silent-corruption";
    m_phase = Final;
    m_check =
      (fun ctx ->
        let p = ctx.cx_platform in
        Platform.scrub_now p;
        let suspects = Platform.storage_suspects p in
        match
          List.find_opt
            (fun (bee, _) -> not (List.mem_assoc bee suspects))
            (Platform.broken_chains p)
        with
        | Some (bee, detail) ->
          Some
            (Printf.sprintf
               "bee %d serves corrupt storage with no detection (%s)" bee detail)
        | None -> (
          match ctx.cx_raft with
          | Some rep when not (Raft_replication.verify_member_logs rep) ->
            Some "a raft member holds a log entry failing its propose-time checksum"
          | _ -> None));
  }

(* Detection must end in repair: once the run quiesces (and a full scrub
   pass has had its say), no bee may still carry an unresolved
   verification failure — every suspect must have been rewritten from
   live state, re-seeded from a peer, or quarantined. *)
let repair_convergence =
  {
    m_name = "repair-convergence";
    m_phase = Final;
    m_check =
      (fun ctx ->
        let p = ctx.cx_platform in
        Platform.scrub_now p;
        match (Platform.store p, Platform.storage_suspects p) with
        | Some s, (bee, detail) :: _ ->
          Some
            (Printf.sprintf
               "bee %d still suspect after quiesce + full scrub (%s); repairs: %d \
                local, %d from peers, %d quarantined"
               bee detail (Store.local_rewrites s) (Store.peer_repairs s)
               (List.length (Store.dead_letters s)))
        | _ -> None);
  }

(* Every committed write must reach the WAL. The checker and handlers
   read the bee's [State]; the log is read back only on recovery, so a
   write set the store never journaled stays invisible until a crash
   loses it. After quiesce, every live durable bee with nothing pending
   and a sound chain must hold in its WAL exactly the state it serves.
   Read-only: damaged chains are no-silent-corruption's finding. *)
let wal_matches_state =
  {
    m_name = "wal-matches-state";
    m_phase = Final;
    m_check =
      (fun ctx ->
        let p = ctx.cx_platform in
        match Platform.store p with
        | None -> None
        | Some s ->
          List.find_map
            (fun v ->
              let bee = v.Platform.view_id in
              if
                v.Platform.view_is_local || (not v.Platform.view_alive)
                || Store.pending_writes s ~bee > 0
                || Store.verify_chain s ~bee <> None
              then None
              else
                let wal = Platform.durable_bee_entries p bee in
                let state = Platform.bee_state_entries p bee in
                let missing a b = List.find_opt (fun e -> not (List.mem e b)) a in
                match (missing state wal, missing wal state) with
                | Some (d, k, _), _ | None, Some (d, k, _) ->
                  Some
                    (Printf.sprintf
                       "bee %d: its state and its WAL disagree on %s/%s (%d entries \
                        served, %d recoverable)"
                       bee d k (List.length state) (List.length wal))
                | None, None -> None)
            (Platform.live_bees p));
  }

(* Runaway message amplification (the historical broadcast-storm bug)
   shows as more than [storm_budget] engine events between two monitor
   ticks. Stateful: one per run. *)
let storm_budget = 5000

let storm () =
  let last = ref 0 in
  {
    m_name = "event-storm";
    m_phase = Continuous;
    m_check =
      (fun ctx ->
        let total = Engine.events_executed ctx.cx_engine in
        let delta = total - !last in
        last := total;
        if delta > storm_budget then
          Some
            (Printf.sprintf "%d events in one monitor tick (budget %d): amplification \
                             runaway"
               delta storm_budget)
        else None);
  }

let defaults () =
  [
    single_owner;
    conservation;
    no_duplication;
    raft_prefix;
    storm ();
    no_loss;
    durable_ownership;
    membership_convergence;
    drain_completeness;
    exactly_once;
    quarantine_accounting;
    no_silent_corruption;
    repair_convergence;
    wal_matches_state;
  ]
