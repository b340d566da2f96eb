(* The exactly-once ledger: which emits still await acknowledgement, when
   to replay them, which acks wait on a receiver's fsync, and which
   messages were quarantined. The durable half (seq and payload bytes)
   lives in the store's per-bee WAL; the ledger keeps the message itself
   plus delivery bookkeeping, the sim's stand-in for deserializing the
   payload back out of the log on replay. *)

module Simtime = Beehive_sim.Simtime

(* Replay pacing for durable un-acked entries: 2 ms doubling to a 16 ms
   cap between re-dispatches of the same entry. *)
let replay_backoff_us = 2_000
let replay_backoff_cap_us = 16_000

type entry = {
  sender : int;
  seq : int;
  msg : Message.t;
  mutable required : int;
      (* receiver legs counted at the latest dispatch; -1 before the first *)
  mutable ackers : int list;  (* distinct receiver bees durably applied *)
  mutable n_ackers : int;  (* length of [ackers] *)
  mutable attempts : int;
  mutable last_attempt : Simtime.t;
  mutable durable : bool;
}

type t = {
  entries : (int * int, entry) Hashtbl.t;  (* keyed (sender, seq) *)
  acks : (int, (int * int * int) list ref) Hashtbl.t;
      (* per receiver hive, newest first: (sender, seq, receiver bee) acks
         waiting for the receiver's inbox mark to be fsynced *)
  quarantine : (int, (Message.t * string) list ref) Hashtbl.t;
      (* per bee, newest first: messages whose retry budget is exhausted,
         with the exception that killed the last attempt *)
  mutable n_quarantined : int;
  mutable n_dups : int;
  mutable virtual_seq : int;
}

let create () =
  {
    entries = Hashtbl.create 64;
    acks = Hashtbl.create 8;
    quarantine = Hashtbl.create 8;
    n_quarantined = 0;
    n_dups = 0;
    virtual_seq = 0;
  }

(* ---- entries ---- *)

let sender e = e.sender
let seq e = e.seq
let msg e = e.msg

let add t ~sender ~seq ~durable msg =
  Hashtbl.replace t.entries (sender, seq)
    {
      sender;
      seq;
      msg;
      required = -1;
      ackers = [];
      n_ackers = 0;
      attempts = 0;
      last_attempt = Simtime.zero;
      durable;
    }

let find t ~sender ~seq = Hashtbl.find_opt t.entries (sender, seq)
let remove t e = Hashtbl.remove t.entries (e.sender, e.seq)
let unacked t = Hashtbl.length t.entries

let drop_sender t sender =
  let stale =
    Hashtbl.fold
      (fun ((s, _) as key) _ acc -> if s = sender then key :: acc else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) (List.sort compare stale)

let reseed t ~sender ~durable emits =
  drop_sender t sender;
  List.iter (fun (seq, m) -> add t ~sender ~seq ~durable m) emits

let drop_undurable t ~sent_from =
  let doomed =
    Hashtbl.fold
      (fun key e acc -> if (not e.durable) && sent_from e.sender then key :: acc else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) (List.sort compare doomed)

let mark_durable t ~sender ~seq =
  match find t ~sender ~seq with
  | None -> None
  | Some e ->
    e.durable <- true;
    if e.attempts = 0 then Some e else None

(* ---- dispatch, acks, replay ---- *)

let attempted e = e.attempts > 0

let start_attempt e ~now =
  e.attempts <- e.attempts + 1;
  e.last_attempt <- now

let last_attempt e = e.last_attempt

let set_required e legs =
  e.required <- legs;
  e.n_ackers >= legs

let ack e ~receiver =
  if not (List.mem receiver e.ackers) then begin
    e.ackers <- receiver :: e.ackers;
    e.n_ackers <- e.n_ackers + 1
  end;
  e.required >= 0 && e.n_ackers >= e.required

let backoff e =
  let n = min 10 (max 0 (e.attempts - 1)) in
  Simtime.of_us (min replay_backoff_cap_us (replay_backoff_us * (1 lsl n)))

let still_due t e ~since =
  match find t ~sender:e.sender ~seq:e.seq with
  | Some e' -> e' == e && e.durable && Simtime.equal e.last_attempt since
  | None -> false

let queue_ack t ~hive ack =
  match Hashtbl.find_opt t.acks hive with
  | Some q -> q := ack :: !q
  | None -> Hashtbl.add t.acks hive (ref [ ack ])

let take_acks t ~hive ~ready =
  match Hashtbl.find_opt t.acks hive with
  | None -> []
  | Some q ->
    let ok, wait = List.partition ready (List.rev !q) in
    q := List.rev wait;
    ok

let clear_acks t ~hive =
  match Hashtbl.find_opt t.acks hive with Some q -> q := [] | None -> ()

let next_virtual_seq t =
  t.virtual_seq <- t.virtual_seq + 1;
  t.virtual_seq

let note_duplicate t = t.n_dups <- t.n_dups + 1
let duplicates t = t.n_dups

(* ---- retry and quarantine ---- *)

(* Handler-failure containment: attempts per message before quarantine,
   and the sim-time backoff between them (200 us doubling). *)
let retry_budget = 3

let retry_delay ~attempts =
  if attempts < retry_budget then Some (Simtime.of_us (200 * (1 lsl (attempts - 1))))
  else None

let quarantine t ~bee msg reason =
  (match Hashtbl.find_opt t.quarantine bee with
  | Some q -> q := (msg, reason) :: !q
  | None -> Hashtbl.add t.quarantine bee (ref [ (msg, reason) ]));
  t.n_quarantined <- t.n_quarantined + 1

let quarantined t ~bee =
  match Hashtbl.find_opt t.quarantine bee with Some q -> List.length !q | None -> 0

let quarantined_messages t ~bee =
  match Hashtbl.find_opt t.quarantine bee with Some q -> List.rev !q | None -> []

let total_quarantined t = t.n_quarantined
let quarantined_bees t = Hashtbl.length t.quarantine

let rows emits = List.map (fun (seq, (m : Message.t)) -> (seq, m.Message.size)) emits
