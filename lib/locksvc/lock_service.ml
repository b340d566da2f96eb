module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime

type event =
  | Released of string
  | Expired of string

type lock = {
  mutable lock_holder : session option;
  mutable seq : int;
}

and session = {
  owner : string;
  service : t;
  mutable alive : bool;
  mutable held : string list; (* reverse acquisition order *)
  mutable expiry : Engine.handle option;
}

and t = {
  engine : Engine.t;
  lease : Simtime.t;
  locks : (string, lock) Hashtbl.t;
  watchers : (string, (event -> unit) list ref) Hashtbl.t;
  mutable live_sessions : int;
}

let create engine ?(lease = Simtime.of_sec 10.0) () =
  { engine; lease; locks = Hashtbl.create 64; watchers = Hashtbl.create 16; live_sessions = 0 }

let session_alive s = s.alive

let notify t path ev =
  match Hashtbl.find_opt t.watchers path with
  | None -> ()
  | Some ws -> List.iter (fun f -> f ev) !ws

let held_by l session =
  match l.lock_holder with Some h -> h == session | None -> false

let free_lock t session ~expired path =
  match Hashtbl.find_opt t.locks path with
  | Some l when held_by l session ->
    l.lock_holder <- None;
    notify t path (if expired then Expired path else Released path)
  | Some _ | None -> ()

let expire_session t s =
  if s.alive then begin
    s.alive <- false;
    t.live_sessions <- t.live_sessions - 1;
    s.expiry <- None;
    let held = List.rev s.held in
    s.held <- [];
    List.iter (free_lock t s ~expired:true) held
  end

let arm_expiry t s =
  (match s.expiry with Some h -> ignore (Engine.cancel t.engine h) | None -> ());
  s.expiry <- Some (Engine.schedule_after t.engine t.lease (fun () -> expire_session t s))

let create_session t ~owner =
  let s = { owner; service = t; alive = true; held = []; expiry = None } in
  t.live_sessions <- t.live_sessions + 1;
  arm_expiry t s;
  s

let keep_alive s =
  if not s.alive then invalid_arg "Lock_service.keep_alive: dead session";
  arm_expiry s.service s

let close_session t s =
  if s.alive then begin
    s.alive <- false;
    t.live_sessions <- t.live_sessions - 1;
    (match s.expiry with Some h -> ignore (Engine.cancel t.engine h) | None -> ());
    s.expiry <- None;
    let held = List.rev s.held in
    s.held <- [];
    List.iter (fun path -> free_lock t s ~expired:false path) held
  end

let get_lock t path =
  match Hashtbl.find_opt t.locks path with
  | Some l -> l
  | None ->
    let l = { lock_holder = None; seq = 0 } in
    Hashtbl.add t.locks path l;
    l

let try_acquire t session ~path =
  if not session.alive then invalid_arg "Lock_service.try_acquire: dead session";
  let l = get_lock t path in
  match l.lock_holder with
  | Some holder when holder == session -> `Acquired l.seq
  | Some holder -> `Held_by holder.owner
  | None ->
    l.lock_holder <- Some session;
    l.seq <- l.seq + 1;
    session.held <- path :: session.held;
    `Acquired l.seq

let release t session ~path =
  match Hashtbl.find_opt t.locks path with
  | Some l when held_by l session ->
    session.held <- List.filter (fun p -> not (String.equal p path)) session.held;
    free_lock t session ~expired:false path
  | Some _ | None -> invalid_arg "Lock_service.release: lock not held by session"

let holder t ~path =
  match Hashtbl.find_opt t.locks path with
  | Some { lock_holder = Some s; _ } -> Some s.owner
  | Some _ | None -> None

let sequencer t ~path =
  match Hashtbl.find_opt t.locks path with
  | Some l when l.seq > 0 -> Some l.seq
  | Some _ | None -> None

let watch t ~path f =
  match Hashtbl.find_opt t.watchers path with
  | Some ws -> ws := f :: !ws
  | None -> Hashtbl.add t.watchers path (ref [ f ])

let locks_held _t s = List.rev s.held
let n_live_sessions t = t.live_sessions
