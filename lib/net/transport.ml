module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng

let rto_initial = Simtime.of_us 600
let rto_max = Simtime.of_us 12_000
let jitter_frac = 0.25
let max_attempts = 80
let header_bytes = 0
let ack_bytes = 0

type msg = {
  m_seq : int;
  m_src : Channels.endpoint;
  m_dst : Channels.endpoint;
  m_bytes : int;
  m_deliver : unit -> unit;
  m_on_drop : unit -> unit;
  mutable m_attempts : int;
  mutable m_timer : Engine.handle;  (* the retransmission timer; [Engine.none] once settled *)
  mutable m_done : bool;  (* acked or exhausted: timers become no-ops *)
  mutable m_delivered : bool;  (* m_deliver ran (even if the ack was lost) *)
}

(* Per directed hive pair: sender-side sequencing and in-flight window,
   receiver-side dedup as a contiguous cutoff plus the sparse set of
   out-of-order seqs above it. *)
type link = {
  mutable next_seq : int;
  inflight : (int, msg) Hashtbl.t;
  mutable cutoff : int;  (* every seq <= cutoff has been delivered *)
  above : (int, unit) Hashtbl.t;
}

type t = {
  engine : Engine.t;
  channels : Channels.t;
  rng : Rng.t;
  alive : int -> bool;
  dedup : bool;  (* false only under the injected dedup-off bug *)
  links : (int * int, link) Hashtbl.t;  (* keyed (sh, dh): stable across membership growth *)
  mutable sent : int;
  mutable retransmits : int;
  mutable retransmit_bytes : int;
  mutable delivered : int;
  mutable duplicates : int;
  mutable exhausted : int;
}

let create ~engine ~rng ~alive ~dedup channels =
  {
    engine;
    channels;
    rng;
    alive;
    dedup;
    links = Hashtbl.create 32;
    sent = 0;
    retransmits = 0;
    retransmit_bytes = 0;
    delivered = 0;
    duplicates = 0;
    exhausted = 0;
  }

let link t ~sh ~dh =
  let key = (sh, dh) in
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
    let l =
      { next_seq = 1; inflight = Hashtbl.create 8; cutoff = 0; above = Hashtbl.create 8 }
    in
    Hashtbl.replace t.links key l;
    l

(* Exponential backoff capped at rto_max, plus uniform jitter so
   synchronized retries de-correlate. [attempts] is the number already
   made (>= 1). *)
let rto t attempts =
  let base = Simtime.to_us rto_initial in
  let cap = Simtime.to_us rto_max in
  let n = min (attempts - 1) 20 in
  let d = min cap (base * (1 lsl n)) in
  let jitter_bound = int_of_float (float_of_int d *. jitter_frac) in
  let jitter = if jitter_bound > 0 then Rng.int t.rng jitter_bound else 0 in
  Simtime.of_us (d + jitter)

let seen l seq = seq <= l.cutoff || Hashtbl.mem l.above seq

let mark_seen l seq =
  if seq = l.cutoff + 1 then begin
    l.cutoff <- seq;
    (* Absorb any out-of-order arrivals now contiguous with the cutoff. *)
    let rec absorb () =
      if Hashtbl.mem l.above (l.cutoff + 1) then begin
        Hashtbl.remove l.above (l.cutoff + 1);
        l.cutoff <- l.cutoff + 1;
        absorb ()
      end
    in
    absorb ()
  end
  else if seq > l.cutoff then Hashtbl.replace l.above seq ()

let send_ack t l m =
  (* Acks ride the reverse link and are just as lossy; a lost ack is what
     turns a retransmission into a duplicate at the receiver. *)
  match
    Channels.transfer_result t.channels ~src:m.m_dst ~dst:m.m_src
      ~bytes:ack_bytes ~now:(Engine.now t.engine)
  with
  | `Lost -> ()
  | `Delivered lat ->
    ignore
      (Engine.schedule_after t.engine lat (fun () ->
           if not m.m_done then begin
             m.m_done <- true;
             ignore (Engine.cancel t.engine m.m_timer);
             m.m_timer <- Engine.none;
             Hashtbl.remove l.inflight m.m_seq
           end))

let receive t l m ~dh =
  if t.alive dh then begin
    if seen l m.m_seq then begin
      t.duplicates <- t.duplicates + 1;
      (* The injected dedup-off bug: the retransmitted copy is delivered
         a second time. *)
      if not t.dedup then m.m_deliver ()
    end
    else begin
      mark_seen l m.m_seq;
      t.delivered <- t.delivered + 1;
      m.m_delivered <- true;
      m.m_deliver ()
    end;
    send_ack t l m
  end
(* else: the destination process is gone; the copy evaporates and the
   sender's retransmission timer keeps trying until it exhausts or the
   hive comes back. *)

let rec attempt t l m ~dh =
  let wire_bytes = m.m_bytes + header_bytes in
  (match
     Channels.transfer_result t.channels ~src:m.m_src ~dst:m.m_dst ~bytes:wire_bytes
       ~now:(Engine.now t.engine)
   with
  | `Lost -> ()
  | `Delivered lat ->
    (* Kept through a crash: a copy on the wire still lands ([crash_hive]
       below), and [receive] finds the receiver's process gone or back. *)
    ignore (Engine.schedule_after t.engine lat (fun () -> receive t l m ~dh)));
  arm_timer t l m ~dh

and arm_timer t l m ~dh =
  let d = rto t m.m_attempts in
  m.m_timer <-
    Engine.schedule_after t.engine d (fun () ->
      if not m.m_done then
        if m.m_attempts >= max_attempts then begin
          m.m_done <- true;
          m.m_timer <- Engine.none;
          Hashtbl.remove l.inflight m.m_seq;
          t.exhausted <- t.exhausted + 1;
          m.m_on_drop ()
        end
        else begin
          m.m_attempts <- m.m_attempts + 1;
          t.retransmits <- t.retransmits + 1;
          t.retransmit_bytes <- t.retransmit_bytes + m.m_bytes + header_bytes;
          attempt t l m ~dh
        end)

let send t ~src ~dst ~bytes ~on_drop lane v =
  t.sent <- t.sent + 1;
  if not (Channels.faulty t.channels) then begin
    (* Healthy fabric: no link is lossy or severed, so the wire always
       delivers — a plain posted delivery with no sequencing, acks, or
       timers, whose byte accounting and latency are the failable wire's. *)
    let lat = Channels.transfer t.channels ~src ~dst ~bytes ~now:(Engine.now t.engine) in
    t.delivered <- t.delivered + 1;
    (* Kept through a crash of either end: the frame is on the wire, and
       the lane's callback decides what its landing means. *)
    Engine.post lane lat v
  end
  else begin
    let deliver () = Engine.callback lane v in
    let sh = Channels.hive_of t.channels src and dh = Channels.hive_of t.channels dst in
    let l = link t ~sh ~dh in
    let m =
      {
        m_seq = l.next_seq;
        m_src = src;
        m_dst = dst;
        m_bytes = bytes;
        m_deliver = deliver;
        m_on_drop = on_drop;
        m_attempts = 1;
        m_timer = Engine.none;
        m_done = false;
        m_delivered = false;
      }
    in
    l.next_seq <- l.next_seq + 1;
    Hashtbl.replace l.inflight m.m_seq m;
    attempt t l m ~dh
  end

(* Tears down every directed link touching hive [h]. The hive leaves the
   cluster gracefully, so in-flight messages are settled rather than
   abandoned: timers are cancelled, and any message whose payload never
   reached the receiver has its [on_drop] fired so the sender can account
   for the loss (a decommission racing an outbound migration transfer
   must release the destination's inbound-transfer count, or its own
   later drain waits forever). Delivered-but-unacked messages only lose
   their ack; dropping them too would double-settle. Sequencing state is
   freed so a future hive reusing the id starts fresh. Contrast
   [crash_hive]: a crashed process takes its callbacks with it, so
   nothing fires there. *)
let close_hive t h =
  let doomed =
    Hashtbl.fold
      (fun ((sh, dh) as key) l acc -> if sh = h || dh = h then (key, l) :: acc else acc)
      t.links []
  in
  let dropped = ref [] in
  List.iter
    (fun (key, l) ->
      Hashtbl.iter
        (fun _ m ->
          (if (not m.m_done) && not m.m_delivered then dropped := m :: !dropped);
          m.m_done <- true;
          ignore (Engine.cancel t.engine m.m_timer);
          m.m_timer <- Engine.none)
        l.inflight;
      Hashtbl.remove t.links key)
    doomed;
  (* Fire drops after all teardown, in seq order for determinism; a drop
     callback may send fresh messages, which must not land in a link that
     is still being doomed. *)
  List.iter
    (fun m -> m.m_on_drop ())
    (List.sort (fun a b -> Int.compare a.m_seq b.m_seq) !dropped)

(* Crash semantics for hive [h]: a crashed process loses its in-memory
   transport state. Sender side (h -> peer links): the in-flight window
   and its retransmission timers die with the process, callbacks and all,
   but the link keeps its sequence numbers, and so does the peer's dedup
   state. A copy already on the wire still lands after the crash; the
   restarted sender continues the link's numbering, so that copy can
   never make the receiver take a later message for a duplicate of it.
   Receiver side (peer -> h links): the dedup cutoff and the sparse
   out-of-order set are lost, while the remote senders' in-flight copies
   and timers keep running — so a retransmission racing the restart
   arrives at a receiver that no longer remembers having seen it. That
   double-delivery window is inherent to in-memory dedup; closing it
   takes a receiver-side cutoff that survives the crash (the platform's
   durable inbox). *)
let crash_hive t h =
  let touched =
    Hashtbl.fold
      (fun ((sh, dh) as key) l acc ->
        if sh = h || dh = h then (key, l) :: acc else acc)
      t.links []
    |> List.sort (fun ((a, b), _) ((c, d), _) -> compare (a, b) (c, d))
  in
  List.iter
    (fun ((sh, _), l) ->
      if sh = h then begin
        Hashtbl.iter
          (fun _ m ->
            m.m_done <- true;
            ignore (Engine.cancel t.engine m.m_timer);
            m.m_timer <- Engine.none)
          l.inflight;
        Hashtbl.reset l.inflight
      end
      else begin
        l.cutoff <- 0;
        Hashtbl.reset l.above
      end)
    touched

(* Messages on the links touching [h] whose payload has not reached its
   receiver yet: a hive may leave only once none is left. *)
let in_flight t h =
  Hashtbl.fold
    (fun (sh, dh) l acc ->
      if sh = h || dh = h then
        Hashtbl.fold (fun _ m acc -> if m.m_delivered then acc else acc + 1) l.inflight acc
      else acc)
    t.links 0

let sent t = t.sent
let delivered t = t.delivered
let retransmits t = t.retransmits
let retransmit_bytes t = t.retransmit_bytes

let gauges t =
  let pending = Hashtbl.fold (fun _ l acc -> acc + Hashtbl.length l.inflight) t.links 0 in
  [
    ("transport.sent", t.sent);
    ("transport.delivered", t.delivered);
    ("transport.retransmits", t.retransmits);
    ("transport.retransmit_bytes", t.retransmit_bytes);
    ("transport.duplicates", t.duplicates);
    ("transport.exhausted", t.exhausted);
    ("transport.pending", pending);
  ]
