(* What a cell-ownership request costs. The registry is the only record
   of who owns a cell; each lookup or claim against it stands for a
   lock-service request: one round trip between the asking hive and the
   lock master, charged on the control channel. *)

module Engine = Beehive_sim.Engine
module Channels = Beehive_net.Channels

(* The lock-service master's hive, and the bytes of one lock-service
   request or response. *)
let master = 0
let rpc_size = 48

type t = {
  engine : Engine.t;
  chans : Channels.t;
  mutable rpcs : int;
}

let create engine chans = { engine; chans; rpcs = 0 }

let charge_rpc t ~hive =
  t.rpcs <- t.rpcs + 1;
  Channels.round_trip t.chans ~src:hive ~dst:master ~req_bytes:rpc_size
    ~resp_bytes:rpc_size ~now:(Engine.now t.engine)

let rpcs t = t.rpcs
