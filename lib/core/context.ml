exception Access_violation of { app : string; dict : string; key : string }

(* A context is the handling bee's [env], built once per bee, plus what
   one delivery brings and buffers. *)
type t = {
  env : env;
  allowed : Mapping.t;
  message : Message.t;
  mutable emits : Message.t list;  (* newest first *)
  mutable sends : (Beehive_net.Channels.endpoint * Message.t) list;  (* newest first *)
  mutable closed : bool;
}

and env = {
  src : Message.source;  (* the bee's [From_bee], the source of every emit *)
  now : unit -> Beehive_sim.Simtime.t;
  rng : Beehive_sim.Rng.t;
  late : late;
  tx : State.tx;  (* the bee's one transaction, reopened by every [make] *)
  mutable read_shadow : (string * string * Value.t) list option;
      (* the delivery's: when set, pure reads are served from this
         snapshot instead of the transaction — the platform's stale-read
         fault injection *)
}

and late =
  t -> Beehive_net.Channels.endpoint option -> ?size:int -> kind:string -> Message.payload -> unit

(* What a bee's transaction is open against until its first [make]
   reopens it against the bee's state; no context reaches it. *)
let no_state = State.create ()

let with_tx ~src ~now ~rng ~late tx =
  match src with
  | Message.From_bee _ -> { src; now; rng; late; tx; read_shadow = None }
  | Message.From_endpoint _ | Message.From_system -> invalid_arg "Context.env: not a bee source"

let env ~src ~now ~rng ~late = with_tx ~src ~now ~rng ~late (State.begin_tx no_state)
let source env = env.src
let with_source e ~src = with_tx ~src ~now:e.now ~rng:e.rng ~late:e.late e.tx

let make env ~state ~read_shadow ~allowed ~message =
  State.reopen env.tx state;
  env.read_shadow <- read_shadow;
  { env; allowed; message; emits = []; sends = []; closed = false }

(* [env] admits only a [From_bee] source, so the other arms never run. *)
let app t = match t.env.src with Message.From_bee { app; _ } -> app | _ -> ""
let bee_id t = match t.env.src with Message.From_bee { bee; _ } -> bee | _ -> -1
let hive_id t = match t.env.src with Message.From_bee { hive; _ } -> hive | _ -> -1
let now t = t.env.now ()
let rng t = t.env.rng
let message t = t.message
let tx t = t.env.tx
let close t = t.closed <- true
let emitted t = t.emits
let sent t = t.sends

(* The cell an access check asks about a [Cells] mapping, held in
   module-level scratch so that its predicates are top-level functions
   and a check builds no closure. One domain runs one handler at a time,
   and a predicate runs no handler code, so no check starts while
   another is asking. A [Key] mapping is checked by comparing its two
   strings. Any other mapping holds no cell. *)
type probe = {
  mutable p_dict : string;
  mutable p_key : string;
}

let probe = { p_dict = ""; p_key = "" }

(* [Cell.intersects] with [Cell.cell probe.p_dict probe.p_key], without
   building it. *)
let covers_probe (a : Cell.t) =
  String.equal a.Cell.dict probe.p_dict
  && match a.Cell.key with Cell.All -> true | Cell.Key k -> String.equal k probe.p_key

let in_probe_dict (a : Cell.t) = String.equal a.Cell.dict probe.p_dict

(* Whether [a] is [Cell.whole probe.p_dict], without building the
   wildcard. *)
let is_probe_wildcard (a : Cell.t) =
  match a.Cell.key with Cell.All -> in_probe_dict a | Cell.Key _ -> false

let visible t ~dict key =
  match t.allowed with
  | Mapping.Key { dict = d; key = k } -> String.equal d dict && String.equal k key
  | Mapping.Cells cs ->
    probe.p_dict <- dict;
    probe.p_key <- key;
    Cell.Set.exists covers_probe cs
  | Mapping.Foreach _ | Mapping.Local | Mapping.Drop -> false

(* Whether the mapped cells reach into [dict] at all. *)
let maps_dict t ~dict =
  match t.allowed with
  | Mapping.Key { dict = d; _ } -> String.equal d dict
  | Mapping.Cells cs ->
    probe.p_dict <- dict;
    Cell.Set.exists in_probe_dict cs
  | Mapping.Foreach _ | Mapping.Local | Mapping.Drop -> false

let holds_wildcard t ~dict =
  match t.allowed with
  | Mapping.Cells cs ->
    probe.p_dict <- dict;
    Cell.Set.exists is_probe_wildcard cs
  | Mapping.Key _ | Mapping.Foreach _ | Mapping.Local | Mapping.Drop -> false

(* A closed context is a stale handle: the bee's transaction has moved
   on to a later delivery, so a state access through it raises before it
   reaches that transaction. *)
let live t = if t.closed then invalid_arg "State: transaction already finished"

let check t ~dict ~key =
  live t;
  if not (visible t ~dict key) then raise (Access_violation { app = app t; dict; key })

let check_dict t ~dict =
  live t;
  if not (maps_dict t ~dict) then raise (Access_violation { app = app t; dict; key = "*" })

let shadow_get t ~dict ~key =
  match t.env.read_shadow with
  | None -> None
  | Some entries ->
    Some
      (List.find_map
         (fun (d, k, v) -> if String.equal d dict && String.equal k key then Some v else None)
         entries)

let get t ~dict ~key =
  check t ~dict ~key;
  match shadow_get t ~dict ~key with
  | Some v -> v
  | None -> State.tx_get t.env.tx ~dict ~key

let mem t ~dict ~key =
  check t ~dict ~key;
  match shadow_get t ~dict ~key with
  | Some v -> Option.is_some v
  | None -> State.tx_mem t.env.tx ~dict ~key

let set t ~dict ~key v =
  check t ~dict ~key;
  State.tx_set t.env.tx ~dict ~key v

let del t ~dict ~key =
  check t ~dict ~key;
  State.tx_del t.env.tx ~dict ~key

let update t ~dict ~key f =
  check t ~dict ~key;
  State.tx_write t.env.tx ~dict ~key (f (State.tx_get t.env.tx ~dict ~key))

(* Holding the wildcard of [dict] makes every key visible, so only bees
   that hold some keys of [dict] pay the per-key check. *)
let iter_dict t ~dict f =
  check_dict t ~dict;
  let f = if holds_wildcard t ~dict then f else fun k v -> if visible t ~dict k then f k v in
  match t.env.read_shadow with
  | Some entries -> List.iter (fun (d, k, v) -> if String.equal d dict then f k v) entries
  | None -> State.tx_iter t.env.tx ~dict f

let bee_message t ?size ~kind payload =
  Message.make ?size ~kind ~src:t.env.src ~sent_at:(now t) payload

let emit t ?size ~kind payload =
  if t.closed then t.env.late t None ?size ~kind payload
  else t.emits <- bee_message t ?size ~kind payload :: t.emits

let send_to t ep ?size ~kind payload =
  if t.closed then t.env.late t (Some ep) ?size ~kind payload
  else t.sends <- (ep, bee_message t ?size ~kind payload) :: t.sends
