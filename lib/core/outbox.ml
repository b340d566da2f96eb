(* The exactly-once ledger: each emit's delivery bookkeeping, when to
   replay it, and which messages were quarantined. Which emits are still
   un-acked is the store's outbox, whose rows are the entries; the
   entry keeps the message itself, the sim's stand-in for deserializing
   the payload back out of the log on replay. *)

module Simtime = Beehive_sim.Simtime
module Mark = Beehive_store.Mark

(* Replay pacing for durable un-acked entries: 2 ms doubling to a 16 ms
   cap between re-dispatches of the same entry. *)
let replay_backoff_us = 2_000
let replay_backoff_cap_us = 16_000

type entry = {
  mark : Mark.t;  (* (sender, seq): the receivers' dedup key *)
  msg : Message.t;
  mutable required : int;
      (* receiver legs counted at the latest dispatch; -1 before the first *)
  mutable acker : int;  (* the first receiver bee that durably applied it; -1 before *)
  mutable more_ackers : int list;  (* later distinct ones *)
  mutable attempts : int;
  mutable last_attempt : Simtime.t;
  mutable armed : int;  (* rechecks armed and not yet taken *)
  mutable stale : int;
      (* how many of the oldest armed rechecks an attempt at a later
         instant superseded *)
}

type t = {
  quarantine : (int, (Message.t * string) list ref) Hashtbl.t;
      (* per bee, newest first: messages whose retry budget is exhausted,
         with the exception that killed the last attempt *)
  mutable n_quarantined : int;
  mutable n_dups : int;
  mutable virtual_seq : int;
}

let create () =
  {
    quarantine = Hashtbl.create 8;
    n_quarantined = 0;
    n_dups = 0;
    virtual_seq = 0;
  }

(* ---- entries ---- *)

let mark e = e.mark
let sender e = Mark.sender e.mark
let seq e = Mark.seq e.mark
let msg e = e.msg

let bytes e = e.msg.Message.size

let emit ~sender ~seq msg =
  {
    mark = Mark.make ~sender ~seq;
    msg;
    required = -1;
    acker = -1;
    more_ackers = [];
    attempts = 0;
    last_attempt = Simtime.zero;
    armed = 0;
    stale = 0;
  }

(* ---- dispatch, acks, replay ---- *)

let attempted e = e.attempts > 0

(* An attempt at a later instant than the last supersedes every armed
   recheck; a second attempt at the same instant supersedes none. *)
let start_attempt e ~now =
  if not (Simtime.equal now e.last_attempt) then e.stale <- e.armed;
  e.attempts <- e.attempts + 1;
  e.last_attempt <- now

let last_attempt e = e.last_attempt

let n_ackers e = if e.acker < 0 then 0 else 1 + List.length e.more_ackers

let set_required e legs =
  e.required <- legs;
  n_ackers e >= legs

(* One leg's ack, the common case, fills the int field and conses
   nothing. *)
let ack e ~receiver =
  if e.acker < 0 then e.acker <- receiver
  else if receiver <> e.acker && not (List.mem receiver e.more_ackers) then
    e.more_ackers <- receiver :: e.more_ackers;
  e.required >= 0 && n_ackers e >= e.required

let backoff e =
  let n = min 10 (max 0 (e.attempts - 1)) in
  Simtime.of_us (min replay_backoff_cap_us (replay_backoff_us * (1 lsl n)))

let arm_recheck e = e.armed <- e.armed + 1

(* Rechecks are taken in the order they were armed, so the oldest armed
   one is taken now, and it is stale exactly when it is among the
   [stale] oldest. *)
let take_recheck e =
  e.armed <- e.armed - 1;
  if e.stale > 0 then begin
    e.stale <- e.stale - 1;
    false
  end
  else true

let still_due e ~current ~fresh = fresh && current == e

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

