module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Crc32 = Beehive_sim.Crc32

let fsync_latency = Simtime.of_us 100

type config = { snapshot_threshold_bytes : int }

let default_config = { snapshot_threshold_bytes = 64 * 1024 }

type 'v write = string * string * 'v option

(* The length+CRC32 envelope around a durable artifact, as the disk
   holds it. [f_payload] models the bytes on disk: fault injection
   mutates it in place, while [f_len] and [f_crc] are what the envelope
   recorded at write time. A short payload is a torn write (detected by
   length framing alone); an equal-length payload with a mismatched CRC
   is silent corruption (detected only when checksum verification is
   on). *)
type image = { mutable f_payload : string; f_crc : int; f_len : int }

let image_of payload =
  { f_payload = payload; f_crc = Crc32.string payload; f_len = String.length payload }

(* A committed record and a snapshot never change, so the image the
   write put on disk is a pure function of the artifact: a [Sound] frame
   keeps no bytes, and the image is built from the artifact only when
   [wal_image] prints it or fault injection damages it. A [Damaged] frame
   holds that write-time image with its bytes as the disk now has
   them. *)
type frame = Sound | Damaged of image

type frame_state = F_ok | F_torn | F_garbled

(* Physical truth, independent of the verification switch — what a reader
   that trusts the bytes would actually be handed. *)
let frame_state_oracle = function
  | Sound -> F_ok
  | Damaged f ->
    if String.length f.f_payload <> f.f_len then F_torn
    else if Crc32.string f.f_payload <> f.f_crc then F_garbled
    else F_ok

let frame_damaged_oracle f = frame_state_oracle f <> F_ok

(* One transaction's worth of log: the state write-set plus the outbox
   entries and inbox marks committed with it. [append] builds it pending,
   with no lsn; everything in it becomes durable together when the next
   group commit stamps its lsn and commit time in place and moves it
   into the WAL — or is lost together by [drop_pending]. Only a pending
   record is ever edited (by the debug hooks [wipe_inbox] and
   [drop_outbox]), so a committed one is fixed but for its link. *)
type ('v, 'e) record = {
  mutable r_lsn : int;  (* 0 while pending *)
  mutable r_at : Simtime.t;  (* commit time *)
  r_hive : int;  (* the appending hive, charged the fsync *)
  r_writes : 'v write list;
  r_bytes : int;
  mutable r_outbox : 'e list;
      (* outbox entries committed with this record, oldest first —
         truncating the record must unwind them *)
  mutable r_inbox : Mark.t list;  (* dedup marks carried into this record *)
  mutable r_consumed : Mark.t;
      (* the mark of the delivery this record applied, or [Mark.none]:
         journaled after the carried ones, and handed over as an ack once
         durable *)
  mutable r_frame : frame;  (* [Sound] until fault injection damages it *)
  mutable r_older : ('v, 'e) record;  (* the next older record of its chain *)
}

(* A log's pending records and its durable WAL are two chains, newest
   first, linked through [r_older]: a record is in one of them at a time.
   Each ends at the store's placeholder record, which links to itself. *)
let is_end r = r.r_older == r

let rec fold_chain f r acc = if is_end r then acc else fold_chain f r.r_older (f r acc)

let rec iter_oldest f r =
  if not (is_end r) then begin
    iter_oldest f r.r_older;
    f r
  end

let chain_length r = fold_chain (fun _ n -> n + 1) r 0

(* Serialized framing overheads (bytes). *)
let record_overhead = 24
let snapshot_overhead = 32
let package_overhead = 64
let outbox_entry_overhead = 16
let inbox_mark_overhead = 16

(* Length (4B) + CRC32 (4B) envelope written around every WAL record and
   snapshot — the modeled byte cost of end-to-end integrity. *)
let frame_overhead = 8

type ('v, 'e) bee_log = {
  bl_bee : int;
  mutable bl_dirty : bool;
      (* queued on the store's dirty list: has (or had) pending records *)
  mutable bl_pending : ('v, 'e) record;
      (* records awaiting group commit, newest first; lost on
         [drop_pending] of their hive *)
  mutable bl_wal : ('v, 'e) record;  (* durable tail, newest first *)
  mutable bl_wal_bytes : int;
  mutable bl_wal_records : int;
  mutable bl_snapshot : (string * string * 'v) list;
  mutable bl_snapshot_lsn : int;
  mutable bl_snapshot_frame : frame;
  mutable bl_snapshot_bytes : int;
  mutable bl_compactions : int;
  mutable bl_next_lsn : int;  (* next lsn to assign *)
  mutable bl_next_out_seq : int;
      (* next outbox sequence number; monotonic, never reused even after
         acks, so a receiver's cutoff stays valid across sender restarts *)
  bl_outbox : 'e Mark.Table.t;  (* durable un-acked outbox entries, by seq *)
  bl_inbox : Mark.Set.t;  (* durable dedup marks: deliveries already applied *)
}

(* The outbox entries one fsync made durable, oldest first, in an array
   reused from commit to commit. Slots past [n] keep the entries of an
   earlier commit until a later one overwrites them: the buffer has no
   placeholder entry to clear them with. *)
module Rows = struct
  type 'e t = { mutable items : 'e array; mutable n : int }

  let create () = { items = [||]; n = 0 }

  let push r e =
    if r.n = Array.length r.items then begin
      let grown = Array.make (max 16 (2 * r.n)) e in
      Array.blit r.items 0 grown 0 r.n;
      r.items <- grown
    end;
    Array.unsafe_set r.items r.n e;
    r.n <- r.n + 1

  let length r = r.n

  let get r i =
    if i < 0 || i >= r.n then invalid_arg "Store.Rows.get";
    Array.unsafe_get r.items i

  let clear r = r.n <- 0
end

(* One hive's share of the group commit in progress: the fsync it will
   be charged, and the acks and the outbox entries that fsync makes
   durable, oldest first, in buffers reused from commit to commit. *)
type 'e hive_commit = {
  mutable hc_bytes : int;
  mutable hc_records : int;
  hc_acks : Mark.Acks.t;
  hc_outbox : 'e Rows.t;
}

type ('v, 'e) t = {
  engine : Engine.t;
  cfg : config;
  size_of : 'v write -> int;
  seq : 'e -> int;  (* an outbox entry's seq *)
  bytes : 'e -> int;  (* and its payload bytes, which the log records *)
  garble : 'v -> 'v;
      (* what a reader gets back from physically damaged bytes it failed to
         (or chose not to) verify — the platform supplies a value-level
         corruption so damage is semantically visible downstream *)
  on_fsync : (hive:int -> bytes:int -> records:int -> unit) option;
  on_durable : (hive:int -> acks:Mark.Acks.t -> 'e Rows.t -> unit) option;
  verify : bool;
      (* false only under the injected checksums-off bug: frames are still
         charged (byte accounting and schedules are unchanged) but
         verification is skipped, so garbled records read back as if they
         were sound. Length framing still catches torn tails — that
         detection needs no checksum. *)
  mutable logs : ('v, 'e) bee_log array;
      (* indexed by bee id, [absent] where a bee has no log; grown to the
         largest id [log_of] was asked for. Walking it is walking the
         logs in bee-id order. *)
  absent : ('v, 'e) bee_log;
      (* the placeholder of a missing log: empty, and never written *)
  nil : ('v, 'e) record;  (* the placeholder that ends every chain *)
  armed_commit : unit -> unit;  (* [commit_armed] of this store, built once *)
  mutable n_logs : int;  (* slots of [logs] holding a log *)
  mutable dirty : ('v, 'e) bee_log array;
  mutable n_dirty : int;
      (* the first [n_dirty] slots of [dirty]: logs queued with records
         awaiting group commit — the flush working set, so a commit
         touches only writers, not every tracked bee. The array is reused
         from commit to commit. *)
  mutable commits : 'e hive_commit array;
      (* indexed by hive id; empty between commits *)
  mutable spare_commits : 'e hive_commit array;
      (* the shares [fire_fsyncs] last reported, all reset: the next
         commit's [commits] ([||] while a report is running) *)
  mutable armed : bool;  (* a group commit is scheduled and has not landed *)
  mutable n_fsyncs : int;
  mutable wal_bytes_written : int;
  mutable wal_records_written : int;
  (* ---- integrity ---- *)
  suspects : (int, string) Hashtbl.t;
      (* bees whose committed prefix failed verification (scrub or fsck),
         not yet repaired, re-seeded or quarantined *)
  mutable scrub_cursor : int;  (* last bee id scanned; scrub resumes after it *)
  mutable records_verified : int;
  mutable crc_failures : int;
  mutable torn_truncations : int;
  mutable scrubs_completed : int;
  mutable local_rewrites : int;
  mutable peer_repairs : int;
  mutable dead_letters : (int * string) list;
      (* quarantined-corrupt bees, newest first: (bee, verdict detail) —
         the record left in place of state we refused to serve *)
}

(* What the production read path can see: torn writes always (length
   framing), garbled bytes only while checksum verification is on. *)
let frame_state t f =
  match frame_state_oracle f with F_garbled when not t.verify -> F_ok | state -> state

(* [Buffer.add_string buf (string_of_int n)] without the temporary. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n else Buffer.add_string buf (string_of_int n)

let add_entry buf d k =
  Buffer.add_char buf '|';
  Buffer.add_string buf d;
  Buffer.add_char buf '/';
  Buffer.add_string buf k;
  Buffer.add_char buf '='

let rec add_writes t buf = function
  | [] -> ()
  | ((d, k, w) as wr) :: rest ->
    add_entry buf d k;
    (match w with
    | Some _ -> add_int buf (t.size_of wr)
    | None -> Buffer.add_char buf 'x');
    add_writes t buf rest

let add_pair buf tag x y =
  Buffer.add_char buf '|';
  Buffer.add_char buf tag;
  add_int buf x;
  Buffer.add_char buf ':';
  add_int buf y

let rec add_emits t buf = function
  | [] -> ()
  | e :: rest ->
    add_pair buf 'o' (t.seq e) (t.bytes e);
    add_emits t buf rest

let add_mark buf m = add_pair buf 'i' (Mark.sender m) (Mark.seq m)

let rec add_marks buf = function
  | [] -> ()
  | m :: rest ->
    add_mark buf m;
    add_marks buf rest

let add_consumed buf m = if not (Mark.is_none m) then add_mark buf m

(* Canonical serialized payloads. The store holds typed values, so the
   "bytes on disk" are modeled: a deterministic string derived from the
   artifact's identity and shape. Only the image helpers below call
   these, so no commit path encodes. *)
let payload_of_record t r =
  let buf = Buffer.create 64 in
  Buffer.add_char buf 'R';
  add_int buf r.r_lsn;
  add_writes t buf r.r_writes;
  add_emits t buf r.r_outbox;
  add_marks buf r.r_inbox;
  add_consumed buf r.r_consumed;
  Buffer.contents buf

let payload_of_snapshot t ~lsn entries =
  let buf = Buffer.create 64 in
  Buffer.add_char buf 'S';
  add_int buf lsn;
  List.iter
    (fun (d, k, v) ->
      add_entry buf d k;
      add_int buf (t.size_of (d, k, Some v)))
    entries;
  Buffer.contents buf

(* The image a frame stands for: the damaged bytes, or the ones the
   write put on disk, rebuilt from the artifact. *)
let record_image t r =
  match r.r_frame with
  | Damaged f -> f
  | Sound -> image_of (payload_of_record t r)

let snapshot_image t bl =
  match bl.bl_snapshot_frame with
  | Damaged f -> f
  | Sound -> image_of (payload_of_snapshot t ~lsn:bl.bl_snapshot_lsn bl.bl_snapshot)

(* A log with nothing in it; its tables hold no slots until used. *)
let empty_log nil bee =
  {
    bl_bee = bee;
    bl_dirty = false;
    bl_pending = nil;
    bl_wal = nil;
    bl_wal_bytes = 0;
    bl_wal_records = 0;
    bl_snapshot = [];
    bl_snapshot_lsn = 0;
    bl_snapshot_frame = Sound;
    bl_snapshot_bytes = 0;
    bl_compactions = 0;
    bl_next_lsn = 1;
    bl_next_out_seq = 1;
    bl_outbox = Mark.Table.create ();
    bl_inbox = Mark.Set.create ();
  }

(* The bee's log, or [t.absent]: an array read, no hashing. *)
let find_log t bee =
  if bee >= 0 && bee < Array.length t.logs then Array.unsafe_get t.logs bee else t.absent

let find_log_opt t bee =
  let bl = find_log t bee in
  if bl == t.absent then None else Some bl

let log_of t bee =
  let bl = find_log t bee in
  if bl != t.absent then bl
  else begin
    if bee < 0 then invalid_arg (Printf.sprintf "Store: bee %d has no log" bee);
    let n = Array.length t.logs in
    if bee >= n then begin
      let grown = Array.make (max (bee + 1) (2 * n)) t.absent in
      Array.blit t.logs 0 grown 0 n;
      t.logs <- grown
    end;
    let bl = empty_log t.nil bee in
    t.logs.(bee) <- bl;
    t.n_logs <- t.n_logs + 1;
    bl
  end

(* Drops the bee's log, if it has one. *)
let remove_log t bee =
  if find_log t bee != t.absent then begin
    t.logs.(bee) <- t.absent;
    t.n_logs <- t.n_logs - 1
  end

(* Applies [f] to every log, in bee-id order. *)
let iter_logs t f =
  let logs = t.logs in
  for i = 0 to Array.length logs - 1 do
    let bl = Array.unsafe_get logs i in
    if bl != t.absent then f bl
  done

let mark_dirty t bl =
  if not bl.bl_dirty then begin
    bl.bl_dirty <- true;
    let n = t.n_dirty in
    if n = Array.length t.dirty then begin
      let grown = Array.make (max 8 (2 * n)) bl in
      Array.blit t.dirty 0 grown 0 n;
      t.dirty <- grown
    end;
    t.dirty.(n) <- bl;
    t.n_dirty <- n + 1
  end

(* Heap sort of [a.(0)] .. [a.(n - 1)] by bee id, in place: the working
   set is a prefix of a reused array, which [Array.sort] cannot sort. *)
let rec sift_down a n i =
  let c = (2 * i) + 1 in
  if c < n then begin
    let c = if c + 1 < n && a.(c + 1).bl_bee > a.(c).bl_bee then c + 1 else c in
    if a.(c).bl_bee > a.(i).bl_bee then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift_down a n c
    end
  end

let sort_by_bee a n =
  for i = (n / 2) - 1 downto 0 do
    sift_down a n i
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down a last 0
  done

(* Empties the dirty set into the first slots of [t.dirty], in
   deterministic (bee id) order, and returns their number. Drops logs
   that were forgotten or replaced since they were queued, and those a
   [flush_bee] already took (no longer marked; a log marked again since
   is queued twice, and taken once). *)
let take_dirty t =
  let ds = t.dirty in
  let n = ref 0 in
  for i = 0 to t.n_dirty - 1 do
    let bl = ds.(i) in
    if bl.bl_dirty then begin
      bl.bl_dirty <- false;
      if find_log t bl.bl_bee == bl then begin
        ds.(!n) <- bl;
        incr n
      end
    end
  done;
  t.n_dirty <- 0;
  sort_by_bee ds !n;
  !n

let entry_order (d1, k1, _) (d2, k2, _) =
  match String.compare d1 d2 with 0 -> String.compare k1 k2 | c -> c

(* The record's byte charge, summed by recursion: no closure per call. *)
let rec writes_bytes t acc = function
  | [] -> acc
  | w :: rest -> writes_bytes t (acc + t.size_of w) rest

let rec outbox_bytes t acc = function
  | [] -> acc
  | e :: rest -> outbox_bytes t (acc + outbox_entry_overhead + t.bytes e) rest

let record_bytes t writes ~outbox ~inbox ~consumed =
  record_overhead + frame_overhead + writes_bytes t 0 writes + outbox_bytes t 0 outbox
  + (inbox_mark_overhead * (List.length inbox + if Mark.is_none consumed then 0 else 1))

(* Explicit sequence numbers (failover re-seeding) must never collide
   with future allocations. *)
let rec bump_out_seq t bl = function
  | [] -> ()
  | e :: rest ->
    let seq = t.seq e in
    if seq >= bl.bl_next_out_seq then bl.bl_next_out_seq <- seq + 1;
    bump_out_seq t bl rest

let alloc_out_seqs t ~bee n =
  let bl = log_of t bee in
  let first = bl.bl_next_out_seq in
  bl.bl_next_out_seq <- first + n;
  first

(* Durable view: snapshot overlaid with the WAL tail, pending excluded.
   Values read through a physically damaged frame come back garbled —
   with checksum verification on, production paths never get here without
   an fsck/scrub gate in front; with it off, this is exactly the silent
   corruption a lying disk serves. *)
let durable_table t bl =
  let view = Hashtbl.create (max 16 (List.length bl.bl_snapshot)) in
  let snap_bad = frame_damaged_oracle bl.bl_snapshot_frame in
  List.iter
    (fun (d, k, v) ->
      Hashtbl.replace view (d, k) (if snap_bad then t.garble v else v))
    bl.bl_snapshot;
  iter_oldest
    (fun r ->
      let bad = frame_damaged_oracle r.r_frame in
      List.iter
        (fun (d, k, w) ->
          match w with
          | Some v -> Hashtbl.replace view (d, k) (if bad then t.garble v else v)
          | None -> Hashtbl.remove view (d, k))
        r.r_writes)
    bl.bl_wal;
  view

let durable_entries t bl =
  Hashtbl.fold (fun (d, k) v acc -> (d, k, v) :: acc) (durable_table t bl) []
  |> List.sort entry_order

(* What one scrub visit reports about a log: the newest frame of the
   chain from [r] that fails verification, if any. *)
let rec first_bad t r =
  if is_end r then None
  else if frame_state t r.r_frame <> F_ok then
    Some (Printf.sprintf "wal record lsn %d failed verification" r.r_lsn)
  else first_bad t r.r_older

let verify_log t bl =
  if frame_state t bl.bl_snapshot_frame <> F_ok then Some "snapshot failed checksum verification"
  else first_bad t bl.bl_wal

(* Any frame the production read path would reject right now. *)
let log_suspect_now t bl = Option.is_some (verify_log t bl)

(* Installs [es] as the log's snapshot, taken at its last lsn: the
   entries, their lsn, a sound frame and the image's byte size. *)
let set_snapshot t bl es =
  let lsn = bl.bl_next_lsn - 1 in
  bl.bl_snapshot <- es;
  bl.bl_snapshot_lsn <- lsn;
  bl.bl_snapshot_frame <- Sound;
  bl.bl_snapshot_bytes <-
    snapshot_overhead + frame_overhead
    + List.fold_left (fun acc (d, k, v) -> acc + t.size_of (d, k, Some v)) 0 es

let compact_log t bl =
  (* Compaction re-reads cold bytes: with verification on it refuses to
     fold a damaged log (scrub/fsck will repair it first), because doing
     so would launder garbage into a freshly-checksummed snapshot. With
     verification off that laundering is exactly what happens. *)
  if t.verify && log_suspect_now t bl then ()
  else begin
  set_snapshot t bl (durable_entries t bl);
  bl.bl_wal <- t.nil;
  bl.bl_wal_bytes <- 0;
  bl.bl_wal_records <- 0;
  bl.bl_compactions <- bl.bl_compactions + 1
  end

let hive_commit t hive =
  let n = Array.length t.commits in
  if hive >= n then
    t.commits <-
      Array.init (max (hive + 1) (2 * n)) (fun i ->
          if i < n then t.commits.(i)
          else
            {
              hc_bytes = 0;
              hc_records = 0;
              hc_acks = Mark.Acks.create ();
              hc_outbox = Rows.create ();
            });
  t.commits.(hive)

let rec publish_outbox t bl hc = function
  | [] -> ()
  | e :: rest ->
    Mark.Table.replace bl.bl_outbox (t.seq e) e;
    Rows.push hc.hc_outbox e;
    publish_outbox t bl hc rest

let rec mark_inbox bl = function
  | [] -> ()
  | mark :: rest ->
    Mark.Set.add bl.bl_inbox mark;
    mark_inbox bl rest

(* The delivery's own mark becomes durable and is handed over as the
   ack its sender waits for; the virtual sender names no bee and is
   never acked. *)
let consume bl hc m =
  if not (Mark.is_none m) then begin
    Mark.Set.add bl.bl_inbox m;
    if Mark.acked m then Mark.Acks.push hc.hc_acks ~receiver:bl.bl_bee m
  end

(* Stamps one pending record with the next lsn and the commit time,
   moves it into the durable WAL and charges it to its hive's share of
   the commit. Its frame stays [Sound]: no bytes are encoded. *)
let commit_record t bl r =
  r.r_lsn <- bl.bl_next_lsn;
  r.r_at <- Engine.now t.engine;
  bl.bl_next_lsn <- r.r_lsn + 1;
  r.r_older <- bl.bl_wal;
  bl.bl_wal <- r;
  bl.bl_wal_bytes <- bl.bl_wal_bytes + r.r_bytes;
  bl.bl_wal_records <- bl.bl_wal_records + 1;
  t.wal_bytes_written <- t.wal_bytes_written + r.r_bytes;
  t.wal_records_written <- t.wal_records_written + 1;
  let hc = hive_commit t r.r_hive in
  hc.hc_bytes <- hc.hc_bytes + r.r_bytes;
  hc.hc_records <- hc.hc_records + 1;
  publish_outbox t bl hc r.r_outbox;
  mark_inbox bl r.r_inbox;
  consume bl hc r.r_consumed

(* Commits the pending chain from [r], oldest first: recursing before
   committing reads each link before [commit_record] relinks it. *)
let rec commit_oldest_first t bl r =
  if not (is_end r) then begin
    commit_oldest_first t bl r.r_older;
    commit_record t bl r
  end

(* Moves a log's pending records, oldest first, into its durable WAL,
   accumulating the per-hive fsync charges, acks and newly durable
   outbox entries into [t.commits]. True if anything moved. *)
let commit_pending t bl =
  let pending = bl.bl_pending in
  bl.bl_pending <- t.nil;
  commit_oldest_first t bl pending;
  not (is_end pending)

(* One fsync per charged hive, in hive order. The shares are swapped for
   the spare, empty ones before the first callback runs, so a callback
   that starts another commit finds [t.commits] empty; each share is
   read out and reset as its hive's fsync fires. *)
let fire_fsyncs t =
  let fired = t.commits in
  t.commits <- t.spare_commits;
  t.spare_commits <- [||];
  for hive = 0 to Array.length fired - 1 do
    let hc = fired.(hive) in
    if hc.hc_records > 0 then begin
      let bytes = hc.hc_bytes and records = hc.hc_records in
      hc.hc_bytes <- 0;
      hc.hc_records <- 0;
      t.n_fsyncs <- t.n_fsyncs + 1;
      (match t.on_fsync with Some f -> f ~hive ~bytes ~records | None -> ());
      (match t.on_durable with
      | Some f when Mark.Acks.length hc.hc_acks > 0 || Rows.length hc.hc_outbox > 0 ->
        f ~hive ~acks:hc.hc_acks hc.hc_outbox
      | Some _ | None -> ());
      Mark.Acks.clear hc.hc_acks;
      Rows.clear hc.hc_outbox
    end
  done;
  t.spare_commits <- fired

(* Commits one log's pending records and compacts it if its durable log
   outgrew the threshold. True if anything moved. *)
let commit_log t bl =
  let moved = commit_pending t bl in
  if moved && bl.bl_wal_bytes > t.cfg.snapshot_threshold_bytes then compact_log t bl;
  moved

let flush t =
  let n = take_dirty t in
  (* In bee-id order: lsns, WAL order, fsync charges and outbox
     publication follow it. The working set is read before the fsync
     callbacks run, since an append they make reuses [t.dirty]. *)
  let committed = ref false in
  for i = 0 to n - 1 do
    if commit_log t t.dirty.(i) then committed := true
  done;
  if !committed then fire_fsyncs t

let flush_bee t ~bee =
  match find_log_opt t bee with
  | None -> ()
  | Some bl ->
    if commit_log t bl then begin
      bl.bl_dirty <- false;
      fire_fsyncs t
    end

(* On-demand group commit: the first record that becomes pending while
   no commit is armed arms one, which lands one fsync latency later and
   commits everything pending then. Records appended meanwhile ride it,
   and a crash inside that window loses them, exactly like an un-fsynced
   log. One commit is armed at a time, so a hive never has two fsyncs in
   flight, and a store with nothing pending schedules nothing. *)
let commit_armed t =
  t.armed <- false;
  flush t

let append t ~bee ~hive ~outbox ~inbox ~consumed writes =
  if writes <> [] || outbox <> [] || inbox <> [] || not (Mark.is_none consumed) then begin
    let bl = log_of t bee in
    bl.bl_pending <-
      {
        r_older = bl.bl_pending;
        r_lsn = 0;
        r_at = Simtime.zero;
        r_hive = hive;
        r_writes = writes;
        r_bytes = record_bytes t writes ~outbox ~inbox ~consumed;
        r_outbox = outbox;
        r_inbox = inbox;
        r_consumed = consumed;
        r_frame = Sound;
      };
    mark_dirty t bl;
    bump_out_seq t bl outbox;
    if not t.armed then begin
      t.armed <- true;
      (* Kept through a hive's crash: the group commit serves every hive,
         and a crash takes its own records out with [drop_pending]. *)
      ignore (Engine.schedule_after t.engine fsync_latency t.armed_commit)
    end
  end

let create engine ?(config = default_config) ~size_of ~seq ~bytes ?(garble = fun v -> v)
    ?(verify = true) ?on_fsync ?on_durable () =
  let rec nil =
    { r_lsn = 0; r_at = Simtime.zero; r_hive = -1; r_writes = []; r_bytes = 0; r_outbox = [];
      r_inbox = []; r_consumed = Mark.none; r_frame = Sound; r_older = nil }
  in
  let rec t =
  {
    engine;
    cfg = config;
    size_of;
    seq;
    bytes;
    garble;
    on_fsync;
    on_durable;
    verify;
    logs = [||];
    absent = empty_log nil (-1);
    nil;
    armed_commit = (fun () -> commit_armed t);
    n_logs = 0;
    dirty = [||];
    n_dirty = 0;
    commits = [||];
    spare_commits = [||];
    armed = false;
    n_fsyncs = 0;
    wal_bytes_written = 0;
    wal_records_written = 0;
    suspects = Hashtbl.create 8;
    scrub_cursor = -1;
    records_verified = 0;
    crc_failures = 0;
    torn_truncations = 0;
    scrubs_completed = 0;
    local_rewrites = 0;
    peer_repairs = 0;
    dead_letters = [];
  }
  in
  t

(* The chain from [r] without [hive]'s records, in the same order. *)
let rec drop_hive hive r =
  if is_end r then r
  else if r.r_hive = hive then drop_hive hive r.r_older
  else (r.r_older <- drop_hive hive r.r_older; r)

let drop_pending t ~hive = iter_logs t (fun bl -> bl.bl_pending <- drop_hive hive bl.bl_pending)

let forget t ~bee =
  remove_log t bee;
  Hashtbl.remove t.suspects bee

let recover t ~bee =
  match find_log_opt t bee with
  | None -> []
  | Some bl -> durable_entries t bl

let recovery_cost t ~bee =
  match find_log_opt t bee with
  | None -> (0, 0)
  | Some bl -> (bl.bl_wal_records, bl.bl_snapshot_bytes + bl.bl_wal_bytes)

(* ---- outbox / inbox ------------------------------------------------ *)

let ack_outbox t ~bee ~seq = Mark.Table.remove (find_log t bee).bl_outbox seq

(* The log's durable outbox entries, ascending by seq. *)
let durable_rows t bl =
  Mark.Table.fold (fun _ e acc -> e :: acc) bl.bl_outbox []
  |> List.sort (fun a b -> Int.compare (t.seq a) (t.seq b))

let outbox_unacked t ~bee =
  match find_log_opt t bee with
  | None -> []
  | Some bl -> durable_rows t bl

(* The entry of row [seq] in the pending chain from [r], newest first. *)
let rec pending_emit t ~seq r =
  if is_end r then raise Not_found else pending_row t ~seq r.r_outbox r.r_older

and pending_row t ~seq rows older =
  match rows with
  | [] -> pending_emit t ~seq older
  | e :: rest -> if t.seq e = seq then e else pending_row t ~seq rest older

let outbox_entry t ~bee ~seq =
  let bl = find_log t bee in
  match Mark.Table.find bl.bl_outbox seq with
  | e -> e
  | exception Not_found -> pending_emit t ~seq bl.bl_pending

let outbox_total t =
  let n = ref 0 in
  iter_logs t (fun bl ->
      n :=
        fold_chain
          (fun r acc -> acc + List.length r.r_outbox)
          bl.bl_pending
          (!n + Mark.Table.length bl.bl_outbox));
  !n

type mark_state = Unseen | Pending | Durable

(* Compares ints in place, with no polymorphic equality. *)
let rec marked m = function [] -> false | m' :: rest -> m' = m || marked m rest

let rec pending_marked m r =
  (not (is_end r)) && (r.r_consumed = m || marked m r.r_inbox || pending_marked m r.r_older)

let inbox_mark t ~bee mark =
  let bl = find_log t bee in
  if Mark.Set.mem bl.bl_inbox mark then Durable
  else if (not (Mark.is_none mark)) && pending_marked mark bl.bl_pending then Pending
  else Unseen

(* Every mark a record journals, carried and consumed. *)
let record_marks r = if Mark.is_none r.r_consumed then r.r_inbox else r.r_consumed :: r.r_inbox

let inbox_marks t ~bee =
  match find_log_opt t bee with
  | None -> []
  | Some bl ->
    let pending = fold_chain (fun r acc -> List.rev_append (record_marks r) acc) bl.bl_pending [] in
    List.sort_uniq Mark.compare (Mark.Set.fold List.cons bl.bl_inbox pending)

let wipe_inbox t ~bee =
  match find_log_opt t bee with
  | None -> ()
  | Some bl ->
    Mark.Set.clear bl.bl_inbox;
    fold_chain
      (fun r () ->
        r.r_inbox <- [];
        r.r_consumed <- Mark.none)
      bl.bl_pending ()

let drop_outbox t ~bee =
  match find_log_opt t bee with
  | None -> ()
  | Some bl ->
    Mark.Table.clear bl.bl_outbox;
    fold_chain (fun r () -> r.r_outbox <- []) bl.bl_pending ()

(* ---- migration ----------------------------------------------------- *)

let package_bytes t ~bee =
  flush t;
  let bl = log_of t bee in
  if bl.bl_wal_bytes > t.cfg.snapshot_threshold_bytes then compact_log t bl;
  let outbox_bytes =
    Mark.Table.fold (fun _ e acc -> acc + outbox_entry_overhead + t.bytes e) bl.bl_outbox 0
  in
  package_overhead + bl.bl_snapshot_bytes + bl.bl_wal_bytes + outbox_bytes
  + (inbox_mark_overhead * Mark.Set.cardinal bl.bl_inbox)

let pending_writes t ~bee =
  match find_log_opt t bee with
  | None -> 0
  | Some bl -> chain_length bl.bl_pending

let snapshot_count t ~bee =
  match find_log_opt t bee with None -> 0 | Some bl -> bl.bl_compactions

let total_fsyncs t = t.n_fsyncs
let total_wal_bytes_written t = t.wal_bytes_written
let total_wal_records_written t = t.wal_records_written
let frame_overhead_bytes = frame_overhead

(* ---- integrity ------------------------------------------------------ *)

type verdict = Intact | Truncated of int | Corrupt of string

let mark_suspect t bee detail =
  if not (Hashtbl.mem t.suspects bee) then begin
    Hashtbl.replace t.suspects bee detail;
    t.crc_failures <- t.crc_failures + 1
  end

let fsck t ~bee =
  match find_log_opt t bee with
  | None -> Intact
  | Some bl ->
    (* Split the newest-first WAL into the trailing run of torn records
       (the tail of the final in-flight write — expected after a crash)
       and the committed prefix, which must verify completely. *)
    let rec split_torn torn r =
      if (not (is_end r)) && frame_state t r.r_frame = F_torn then split_torn (r :: torn) r.r_older
      else (torn, r)
    in
    let torn_tail, prefix = split_torn [] bl.bl_wal in
    t.records_verified <- t.records_verified + bl.bl_wal_records + 1;
    let snap_bad = frame_state t bl.bl_snapshot_frame <> F_ok in
    let prefix_bad = Option.is_some (first_bad t prefix) in
    if snap_bad || prefix_bad then begin
      let detail =
        if snap_bad then "snapshot failed checksum verification"
        else "committed wal record failed checksum verification"
      in
      mark_suspect t bee detail;
      Corrupt detail
    end
    else begin
      Hashtbl.remove t.suspects bee;
      match torn_tail with
      | [] -> Intact
      | torn ->
        (* Crash-consistent prefix semantics: drop the torn tail,
           unwinding the outbox entries and inbox marks that committed
           with those records so a mark can never survive its write. *)
        List.iter
          (fun r ->
            bl.bl_wal_bytes <- bl.bl_wal_bytes - r.r_bytes;
            bl.bl_wal_records <- bl.bl_wal_records - 1;
            List.iter (fun e -> Mark.Table.remove bl.bl_outbox (t.seq e)) r.r_outbox;
            List.iter (Mark.Set.remove bl.bl_inbox) (record_marks r))
          torn;
        bl.bl_wal <- prefix;
        let n = List.length torn in
        t.torn_truncations <- t.torn_truncations + n;
        Truncated n
    end

(* The largest bee id with a log; -1 if none has one. *)
let last_log t =
  let i = ref (Array.length t.logs - 1) in
  while !i >= 0 && t.logs.(!i) == t.absent do
    decr i
  done;
  !i

let scrub t ~budget_bytes =
  if budget_bytes <= 0 || t.n_logs = 0 then (0, [])
  else begin
    let logs = t.logs in
    let n = t.n_logs and len = Array.length logs in
    (* Walk the logs in bee-id order from the first one after the cursor,
       wrapping around, until the byte budget is spent: charge each log,
       advance the cursor, and verify the log, so suspects are marked and
       reported in walk order. *)
    let scanned = ref 0 in
    let visited = ref 0 in
    let found = ref [] in
    let i = ref (t.scrub_cursor + 1) in
    while !visited < n && !scanned < budget_bytes do
      if !i >= len then i := 0;
      let bl = logs.(!i) in
      if bl != t.absent then begin
        t.scrub_cursor <- bl.bl_bee;
        scanned := !scanned + bl.bl_snapshot_bytes + bl.bl_wal_bytes;
        t.records_verified <- t.records_verified + bl.bl_wal_records + 1;
        (match verify_log t bl with
        | Some detail ->
          mark_suspect t bl.bl_bee detail;
          found := (bl.bl_bee, detail) :: !found
        | None -> ());
        incr visited
      end;
      incr i
    done;
    (* A pass completes when one call covered every log, or when the
       round-robin cursor reaches the last log across calls. *)
    if !visited >= n || t.scrub_cursor = last_log t then begin
      t.scrubs_completed <- t.scrubs_completed + 1;
      t.scrub_cursor <- -1
    end;
    (!scanned, List.rev !found)
  end

(* Oracle used by monitors and tests: always verifies, even with
   [verify] off. *)
let verify_chain t ~bee =
  match find_log_opt t bee with
  | None -> None
  | Some bl ->
    if frame_damaged_oracle bl.bl_snapshot_frame then
      Some "snapshot bytes do not match their stored crc32"
    else (
      let oldest_bad r bad = if frame_damaged_oracle r.r_frame then Some r else bad in
      match fold_chain oldest_bad bl.bl_wal None with
      | Some r ->
        Some
          (Printf.sprintf "wal record lsn %d bytes do not match their stored crc32"
             r.r_lsn)
      | None -> None)

let suspects t =
  Hashtbl.fold (fun bee detail acc -> (bee, detail) :: acc) t.suspects []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)


(* Replaces a bee's storage with known-good entries: fresh snapshot,
   fresh frames, empty WAL. Pending records are discarded. Outbox/inbox
   durable state is rewritten from the supplied lists; the lsn, the
   compaction count and the outbox seq allocator carry over. *)
let reseed_log t ~bee ~entries:es ~outbox ~inbox =
  let old = find_log_opt t bee in
  remove_log t bee;
  let bl = log_of t bee in
  let nos =
    match old with
    | Some o ->
      bl.bl_next_lsn <- o.bl_next_lsn;
      bl.bl_compactions <- o.bl_compactions;
      o.bl_next_out_seq
    | None -> 1
  in
  set_snapshot t bl (List.sort entry_order es);
  List.iter (fun e -> Mark.Table.replace bl.bl_outbox (t.seq e) e) outbox;
  List.iter (Mark.Set.add bl.bl_inbox) inbox;
  bump_out_seq t bl outbox;
  bl.bl_next_out_seq <- max bl.bl_next_out_seq (max nos 1);
  Hashtbl.remove t.suspects bee

let reseed t ~bee ~entries ~outbox ~inbox =
  reseed_log t ~bee ~entries ~outbox ~inbox;
  t.peer_repairs <- t.peer_repairs + 1

(* A live bee's process memory is intact and strictly newer than anything
   a peer holds, so its repair is a local rewrite: flush, then replace
   snapshot+WAL with a freshly checksummed image of [entries] (the bee's
   own state), exactly-once bookkeeping carried over unchanged. *)
let rewrite t ~bee ~entries =
  flush_bee t ~bee;
  let outbox =
    match find_log_opt t bee with Some bl -> durable_rows t bl | None -> []
  in
  reseed_log t ~bee ~entries ~outbox ~inbox:(inbox_marks t ~bee);
  t.local_rewrites <- t.local_rewrites + 1

let quarantine t ~bee ~detail =
  forget t ~bee;
  t.dead_letters <- (bee, detail) :: t.dead_letters

(* ---- fault injection (the lying disk) ---- *)

let flip_byte s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  end

(* Damage builds the write-time image first, so the envelope keeps the
   length and CRC the write recorded. *)
let damage_record t r =
  let f = record_image t r in
  r.r_frame <- Damaged f;
  f

let corrupt_record t ~bee ~victim =
  match find_log_opt t bee with
  | None -> false
  | Some bl -> (
    let wal = bl.bl_wal in
    (not (is_end wal))
    &&
    let n = chain_length wal in
    let rec nth r i = if i = 0 then r else nth r.r_older (i - 1) in
    let f = damage_record t (nth wal (((victim mod n) + n) mod n)) in
    f.f_payload <- flip_byte f.f_payload;
    true)

let tear_tail t ~bee =
  match find_log_opt t bee with
  | None -> false
  | Some bl -> (
    let r = bl.bl_wal in
    (not (is_end r))
    &&
    let f = damage_record t r in
    f.f_payload <- String.sub f.f_payload 0 (String.length f.f_payload / 2);
    true)

let rot_snapshot t ~bee =
  match find_log_opt t bee with
  | None -> false
  | Some bl ->
    if bl.bl_snapshot = [] then false
    else begin
      let f = snapshot_image t bl in
      bl.bl_snapshot_frame <- Damaged f;
      f.f_payload <- flip_byte f.f_payload;
      true
    end

let records_verified t = t.records_verified
let scrubs_completed t = t.scrubs_completed
let local_rewrites t = t.local_rewrites
let peer_repairs t = t.peer_repairs
let dead_letters t = List.rev t.dead_letters

let integrity_counters t =
  [
    ("records_verified", t.records_verified);
    ("crc_failures", t.crc_failures);
    ("torn_truncations", t.torn_truncations);
    ("scrubs_completed", t.scrubs_completed);
    ("peer_repairs", t.peer_repairs);
    ("local_rewrites", t.local_rewrites);
    ("quarantined_bees", List.length t.dead_letters);
  ]

(* Canonical byte-level image of the whole store: every tracked log in
   bee-id order — snapshot frame, WAL frames oldest-first with their
   commit times, durable outbox/inbox sorted, lsn bookkeeping. Two
   stores with an equal image hold bit-identical durable state;
   [Runner.digest] hashes this. *)
let wal_image t =
  let buf = Buffer.create 4096 in
  let add_frame tag f =
    Buffer.add_string buf tag;
    Buffer.add_string buf (Printf.sprintf " len=%d crc=%d " f.f_len f.f_crc);
    Buffer.add_string buf f.f_payload;
    Buffer.add_char buf '\n'
  in
  iter_logs t (fun bl ->
      Buffer.add_string buf
        (Printf.sprintf "bee=%d next_lsn=%d snap_lsn=%d next_out_seq=%d\n"
           bl.bl_bee bl.bl_next_lsn bl.bl_snapshot_lsn bl.bl_next_out_seq);
      add_frame "S" (snapshot_image t bl);
      iter_oldest
        (fun r ->
          add_frame
            (Printf.sprintf "W lsn=%d at=%d" r.r_lsn (Simtime.to_us r.r_at))
            (record_image t r))
        bl.bl_wal;
      List.iter
        (fun e -> Buffer.add_string buf (Printf.sprintf "O %d:%d\n" (t.seq e) (t.bytes e)))
        (durable_rows t bl);
      Mark.Set.fold List.cons bl.bl_inbox []
      |> List.sort Mark.compare
      |> List.iter (fun m ->
             Buffer.add_string buf (Printf.sprintf "I %d:%d\n" (Mark.sender m) (Mark.seq m))));
  Buffer.contents buf
