module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime

let src = Logs.Src.create "beehive.detector" ~doc:"Beehive failure detector"

module Log = (val Logs.src_log src : Logs.LOG)

let hb_period = Simtime.of_us 500
let hb_bytes = 16
let suspect_timeout = Simtime.of_us 3_000
let check_period = Simtime.of_us 1_000
let confirm_ticks = 2

type t = {
  platform : Platform.t;
  engine : Engine.t;
  mutable n : int;  (* hive id space; grows with the platform *)
  mutable last_heard : Simtime.t array array;  (* [observer].[subject] *)
  mutable evicted : bool array;
  mutable streak : int array;  (* consecutive confirming check ticks per subject *)
  mutable n_evictions : int;
}

let reset_subject t s =
  let now = Engine.now t.engine in
  for o = 0 to t.n - 1 do
    t.last_heard.(o).(s) <- now
  done;
  t.streak.(s) <- 0;
  t.evicted.(s) <- false

(* Current cluster membership, read from the platform: decommissioned
   hives leave the quorum denominator for good (a crashed or fenced hive
   stays a member — it still counts toward what a majority means). *)
let member t h = not (Platform.hive_decommissioned t.platform h)
let member_count t = Platform.member_count t.platform

let grow_array a n v =
  let b = Array.make n v in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A hive joined at runtime: extend every table and give it (and every
   observer's view of it) a fresh grace period. *)
let add_subject t h =
  let n' = h + 1 in
  if n' > t.n then begin
    let now = Engine.now t.engine in
    let heard = Array.init n' (fun _ -> Array.make n' now) in
    for o = 0 to t.n - 1 do
      Array.blit t.last_heard.(o) 0 heard.(o) 0 t.n
    done;
    t.last_heard <- heard;
    t.evicted <- grow_array t.evicted n' false;
    t.streak <- grow_array t.streak n' 0;
    t.n <- n'
  end;
  reset_subject t h

(* An observer receives a heartbeat. If the sender was deposed but is
   demonstrably running, it is walked back into membership: a heartbeat
   is proof of life, whatever the sender believes about its eviction. A
   heartbeat still in flight when its sender was decommissioned rejoins
   nothing. *)
let receive t ~from:s ~at:d =
  if not (Platform.hive_crashed t.platform d) then begin
    t.last_heard.(d).(s) <- Engine.now t.engine;
    if t.evicted.(s) && member t s && not (Platform.hive_crashed t.platform s) then begin
      reset_subject t s;
      Platform.rejoin_hive t.platform s;
      Log.info (fun m -> m "hive %d reappeared; rejoined" s)
    end
  end

let broadcast t =
  for s = 0 to t.n - 1 do
    (* Crashed processes are silent; fenced (deposed-but-running) hives
       keep gossiping — that is how a false positive heals. Decommissioned
       hives are gone. *)
    if member t s && not (Platform.hive_crashed t.platform s) then begin
      for d = 0 to t.n - 1 do
        if d <> s && member t d then
          (* Kept through a crash: a heartbeat on the wire still lands. *)
          Platform.datagram t.platform ~src:s ~dst:d ~bytes:hb_bytes (fun () ->
              receive t ~from:s ~at:d)
      done
    end
  done

(* Majority of *current* membership, not of the initial cluster size:
   after a 5-hive cluster decommissions down to 3, two silent-on-a-hive
   observers are a majority again. *)
let quorum t = (member_count t / 2) + 1

let confirm t s =
  t.evicted.(s) <- true;
  t.n_evictions <- t.n_evictions + 1;
  if Platform.hive_crashed t.platform s then begin
    (* The process really is dead: run the recovery path that fail_hive
       observers used to trigger by hand. *)
    Log.info (fun m -> m "hive %d confirmed dead; failing over its bees" s);
    Platform.failover_hive t.platform s
  end
  else begin
    Log.info (fun m -> m "hive %d suspected; evicting" s);
    Platform.evict_hive t.platform s
  end

let check t =
  let now = Engine.now t.engine in
  let timeout = Simtime.to_us suspect_timeout in
  let silent_on o s =
    Simtime.to_us now - Simtime.to_us t.last_heard.(o).(s) > timeout
  in
  let quorum = quorum t in
  for s = 0 to t.n - 1 do
    if member t s && not t.evicted.(s) then begin
      let votes = ref 0 in
      for o = 0 to t.n - 1 do
        (* Only members in good standing vote: a minority partition (its
           hives mute to us but not evicted yet) can still never muster a
           majority of the current membership. *)
        if
          o <> s
          && member t o
          && (not t.evicted.(o))
          && (not (Platform.hive_crashed t.platform o))
          && silent_on o s
        then incr votes
      done;
      if !votes >= quorum then begin
        t.streak.(s) <- t.streak.(s) + 1;
        if t.streak.(s) >= confirm_ticks then confirm t s
      end
      else t.streak.(s) <- 0
    end
  done

let install platform =
  let engine = Platform.engine platform in
  let n = Platform.n_hives platform in
  let now = Engine.now engine in
  let t =
    {
      platform;
      engine;
      n;
      last_heard = Array.init n (fun _ -> Array.make n now);
      evicted = Array.make n false;
      streak = Array.make n 0;
      n_evictions = 0;
    }
  in
  (* A restarted hive re-enters membership with a fresh grace period; a
     joined hive gets one too. *)
  Platform.on_hive platform (fun h -> function
    | Platform.Restarted -> reset_subject t h
    | Platform.Added -> add_subject t h
    | Platform.Crashed | Platform.Draining | Platform.Decommissioned -> ());
  ignore (Engine.every engine hb_period (fun () -> broadcast t));
  ignore (Engine.every engine check_period (fun () -> check t));
  t

let suspected t =
  let acc = ref [] in
  for s = t.n - 1 downto 0 do
    if member t s && t.evicted.(s) then acc := s :: !acc
  done;
  !acc

let is_member t h = List.mem h (Platform.members t.platform)

let evictions t = t.n_evictions
