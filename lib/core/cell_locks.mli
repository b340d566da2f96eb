(** The control-channel cost of resolving cell ownership. The
    {!Registry} is the only record of who owns a cell, because the
    simulation runs one platform instance; each lookup or claim against
    it stands for a request to the paper's lock service (e.g. Chubby),
    whose master sits on hive 0. *)

type t

val create : Beehive_sim.Engine.t -> Beehive_net.Channels.t -> t

val charge_rpc : t -> hive:int -> Beehive_sim.Simtime.t
(** Charges one request/response round trip between [hive] and the lock
    master on the control channel; returns its latency. *)

val rpcs : t -> int
(** Round trips charged so far. *)
