module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime

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
}

let create engine ?(lease = Simtime.of_sec 10.0) () =
  { engine; lease; locks = Hashtbl.create 64 }

let session_alive s = s.alive

let held_by l session =
  match l.lock_holder with Some h -> h == session | None -> false

let free_lock t session path =
  match Hashtbl.find_opt t.locks path with
  | Some l when held_by l session -> l.lock_holder <- None
  | Some _ | None -> ()

let expire_session t s =
  if s.alive then begin
    s.alive <- false;
    s.expiry <- None;
    let held = List.rev s.held in
    s.held <- [];
    List.iter (free_lock t s) held
  end

let arm_expiry t s =
  (match s.expiry with Some h -> ignore (Engine.cancel t.engine h) | None -> ());
  s.expiry <- Some (Engine.schedule_after t.engine t.lease (fun () -> expire_session t s))

let create_session t ~owner =
  let s = { owner; service = t; alive = true; held = []; expiry = None } in
  arm_expiry t s;
  s

let keep_alive s =
  if not s.alive then invalid_arg "Lock_service.keep_alive: dead session";
  arm_expiry s.service s

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
    free_lock t session path
  | Some _ | None -> invalid_arg "Lock_service.release: lock not held by session"

let holder t ~path =
  match Hashtbl.find_opt t.locks path with
  | Some { lock_holder = Some s; _ } -> Some s.owner
  | Some _ | None -> None
