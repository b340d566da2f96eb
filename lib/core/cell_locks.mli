(** Cell ownership locks held on the {!Beehive_locksvc.Lock_service} by
    the platform's single session, and the control-channel cost of
    talking to the lock service. Lock-service round trips go to hive 0. *)

type t

val create : Beehive_sim.Engine.t -> Beehive_net.Channels.t -> t
(** Opens the platform's lock session and keeps it alive for the run. *)

val charge_rpc : t -> hive:int -> Beehive_sim.Simtime.t
(** Charges one request/response round trip between [hive] and the lock
    master on the control channel; returns its latency. *)

val acquire : t -> app:string -> Cell.Set.t -> unit
val release : t -> app:string -> Cell.Set.t -> unit

val rpcs : t -> int
(** Round trips charged so far. *)
