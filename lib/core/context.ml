exception Access_violation of { app : string; dict : string; key : string }

type t = {
  src : Message.source;  (* the bee's [From_bee], the source of every emit *)
  bee : int;
  hive : int;
  now : unit -> Beehive_sim.Simtime.t;
  rng : Beehive_sim.Rng.t;
  allowed : Cell.Set.t;
  tx : State.tx;
  read_shadow : (string * string * Value.t) list option;
      (* when set, pure reads are served from this snapshot instead of
         the transaction — the platform's stale-read fault injection *)
  message : Message.t;
  mutable emits : Message.t list;  (* newest first *)
  mutable sends : (Beehive_net.Channels.endpoint * Message.t) list;  (* newest first *)
  mutable closed : bool;
  late : late;
}

and late =
  t -> Beehive_net.Channels.endpoint option -> ?size:int -> kind:string -> Message.payload -> unit

let make ~read_shadow ~src ~now ~rng ~allowed ~tx ~message ~late =
  match src with
  | Message.From_bee { bee; hive; _ } ->
    {
      src;
      bee;
      hive;
      now;
      rng;
      allowed;
      tx;
      read_shadow;
      message;
      emits = [];
      sends = [];
      closed = false;
      late;
    }
  | Message.From_endpoint _ | Message.From_system -> invalid_arg "Context.make: not a bee source"

let app t = match t.src with Message.From_bee { app; _ } -> app | _ -> ""
let bee_id t = t.bee
let hive_id t = t.hive
let now t = t.now ()
let rng t = t.rng
let message t = t.message
let tx t = t.tx
let close t = t.closed <- true
let emitted t = t.emits
let sent t = t.sends

(* [Cell.intersects] with [Cell.cell dict key], without building it. *)
let visible t ~dict key =
  Cell.Set.exists
    (fun (a : Cell.t) ->
      String.equal a.Cell.dict dict
      && match a.Cell.key with Cell.All -> true | Cell.Key k -> String.equal k key)
    t.allowed

let check t ~dict ~key =
  if not (visible t ~dict key) then raise (Access_violation { app = app t; dict; key })

let check_dict t ~dict =
  if not (Cell.Set.exists (fun a -> String.equal a.Cell.dict dict) t.allowed) then
    raise (Access_violation { app = app t; dict; key = "*" })

let shadow_get t ~dict ~key =
  match t.read_shadow with
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
  | None -> State.tx_get t.tx ~dict ~key

let mem t ~dict ~key =
  check t ~dict ~key;
  match shadow_get t ~dict ~key with
  | Some v -> Option.is_some v
  | None -> State.tx_mem t.tx ~dict ~key

let set t ~dict ~key v =
  check t ~dict ~key;
  State.tx_set t.tx ~dict ~key v

let del t ~dict ~key =
  check t ~dict ~key;
  State.tx_del t.tx ~dict ~key

let update t ~dict ~key f =
  check t ~dict ~key;
  match f (State.tx_get t.tx ~dict ~key) with
  | Some v -> State.tx_set t.tx ~dict ~key v
  | None -> State.tx_del t.tx ~dict ~key

(* Holding the wildcard of [dict] makes every key visible, so only bees
   that hold some keys of [dict] pay the per-key check. *)
let iter_dict t ~dict f =
  check_dict t ~dict;
  let f =
    if Cell.Set.mem (Cell.whole dict) t.allowed then f
    else fun k v -> if visible t ~dict k then f k v
  in
  match t.read_shadow with
  | Some entries -> List.iter (fun (d, k, v) -> if String.equal d dict then f k v) entries
  | None -> State.tx_iter t.tx ~dict f

let bee_message t ?size ~kind payload =
  Message.make ?size ~kind ~src:t.src ~sent_at:(t.now ()) payload

let emit t ?size ~kind payload =
  if t.closed then t.late t None ?size ~kind payload
  else t.emits <- bee_message t ?size ~kind payload :: t.emits

let send_to t ep ?size ~kind payload =
  if t.closed then t.late t (Some ep) ?size ~kind payload
  else t.sends <- (ep, bee_message t ?size ~kind payload) :: t.sends
