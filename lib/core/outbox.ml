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
  entries : (int, (int, entry) Hashtbl.t) Hashtbl.t;
      (* by sender, then by seq: a lookup builds no key tuple. A sender's
         table stays (empty) after its last entry retires, so the next
         emit reuses it; only [drop_sender] removes it. *)
  mutable n_entries : int;  (* live entries across every sender *)
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
    n_entries = 0;
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

let of_sender t sender =
  match Hashtbl.find t.entries sender with
  | by_seq -> by_seq
  | exception Not_found ->
    let by_seq = Hashtbl.create 8 in
    Hashtbl.add t.entries sender by_seq;
    by_seq

let add t ~sender ~seq ~durable msg =
  let by_seq = of_sender t sender in
  if not (Hashtbl.mem by_seq seq) then t.n_entries <- t.n_entries + 1;
  Hashtbl.replace by_seq seq
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

let find t ~sender ~seq = Hashtbl.find (Hashtbl.find t.entries sender) seq

let remove_seq t by_seq seq =
  if Hashtbl.mem by_seq seq then begin
    Hashtbl.remove by_seq seq;
    t.n_entries <- t.n_entries - 1
  end

let remove t e =
  match Hashtbl.find t.entries e.sender with
  | by_seq -> remove_seq t by_seq e.seq
  | exception Not_found -> ()

let unacked t = t.n_entries

let drop_sender t sender =
  match Hashtbl.find t.entries sender with
  | by_seq ->
    t.n_entries <- t.n_entries - Hashtbl.length by_seq;
    Hashtbl.remove t.entries sender
  | exception Not_found -> ()

let reseed t ~sender ~durable emits =
  drop_sender t sender;
  List.iter (fun (seq, m) -> add t ~sender ~seq ~durable m) emits

let drop_undurable t ~sent_from =
  let doomed =
    Hashtbl.fold
      (fun sender by_seq acc ->
        if sent_from sender then
          Hashtbl.fold
            (fun seq e acc -> if e.durable then acc else (sender, seq) :: acc)
            by_seq acc
        else acc)
      t.entries []
  in
  List.iter
    (fun (sender, seq) -> remove_seq t (Hashtbl.find t.entries sender) seq)
    (List.sort compare doomed)

let mark_durable e =
  e.durable <- true;
  e.attempts = 0

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
  | e' -> e' == e && e.durable && Simtime.equal e.last_attempt since
  | exception Not_found -> false

let queue_ack t ~hive ~sender ~seq ~receiver =
  match Hashtbl.find t.acks hive with
  | q -> q := (sender, seq, receiver) :: !q
  | exception Not_found -> Hashtbl.add t.acks hive (ref [ (sender, seq, receiver) ])

let queued_acks t ~hive =
  match Hashtbl.find t.acks hive with q -> !q | exception Not_found -> []

let keep_acks t ~hive acks =
  match Hashtbl.find t.acks hive with q -> q := acks | exception Not_found -> ()

let clear_acks t ~hive = keep_acks t ~hive []

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

let quarantined_messages t ~bee =
  match Hashtbl.find_opt t.quarantine bee with Some q -> List.rev !q | None -> []

let total_quarantined t = t.n_quarantined
let quarantined_bees t = Hashtbl.length t.quarantine

let rows emits = List.map (fun (seq, (m : Message.t)) -> (seq, m.Message.size)) emits
