(* The registry's cell locks on the lock service, and what they cost: a
   lock-service request is one round trip between the asking hive and the
   lock master, charged on the control channel. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels
module Lock_service = Beehive_locksvc.Lock_service

(* The lock-service master's hive, and the bytes of one lock-service
   request or response. *)
let master = 0
let rpc_size = 48

type t = {
  engine : Engine.t;
  chans : Channels.t;
  locks : Lock_service.t;
  session : Lock_service.session;
  mutable rpcs : int;
}

let create engine chans =
  let locks = Lock_service.create engine () in
  let session = Lock_service.create_session locks ~owner:"platform" in
  (* Keep the platform's lock session alive for the whole run. *)
  ignore
    (Engine.every engine (Simtime.of_sec 4.0) (fun () ->
         if Lock_service.session_alive session then Lock_service.keep_alive session));
  { engine; chans; locks; session; rpcs = 0 }

let path app (c : Cell.t) =
  let key = match c.Cell.key with Cell.All -> "*" | Cell.Key k -> k in
  Printf.sprintf "/beehive/cells/%s/%s/%s" app c.Cell.dict key

let charge_rpc t ~hive =
  t.rpcs <- t.rpcs + 1;
  let now = Engine.now t.engine in
  let l1 =
    Channels.transfer t.chans ~src:(Channels.Hive hive) ~dst:(Channels.Hive master)
      ~bytes:rpc_size ~now
  in
  let l2 =
    Channels.transfer t.chans ~src:(Channels.Hive master) ~dst:(Channels.Hive hive)
      ~bytes:rpc_size ~now
  in
  Simtime.add l1 l2

let acquire t ~app cells =
  Cell.Set.iter
    (fun c ->
      match Lock_service.try_acquire t.locks t.session ~path:(path app c) with
      | `Acquired _ -> ()
      | `Held_by other ->
        (* Single platform instance: this would mean a foreign owner. *)
        failwith (Printf.sprintf "cell lock %s held by %s" (path app c) other))
    cells

let release t ~app cells =
  Cell.Set.iter
    (fun c ->
      let path = path app c in
      match Lock_service.holder t.locks ~path with
      | Some _ -> Lock_service.release t.locks t.session ~path
      | None -> ())
    cells

let rpcs t = t.rpcs
