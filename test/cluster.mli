(** In-simulator Raft cluster wiring.

    Connects N {!Raft} nodes through a lossy, partitionable transport on
    the discrete-event engine. Each node's applied entries are recorded,
    so tests can assert the Raft safety properties (single leader per
    term, state-machine safety, durability of committed entries) under
    crashes and partitions. *)

type t

val create : Beehive_sim.Engine.t -> n:int -> t
(** Messages take 5 ms one way. All nodes are started. *)

val node : t -> int -> (string, string) Beehive_raft.Raft.t
(** Commands and snapshot images are strings: a command's wire size is
    its length, and its CRC envelope covers the string itself. *)

val n : t -> int

val leaders : t -> int list
(** Ids of nodes currently believing they are leader (on live,
    mutually-connected nodes there is at most one per term). *)

val leader : t -> int option
(** The unique live leader, if exactly one exists. *)

val propose_anywhere : t -> string -> [ `Proposed of int * int | `No_leader ]
(** Finds the live leader and proposes; returns (leader id, log index). *)

val applied : t -> int -> (int * string) list
(** [(index, command)] applied by the node's state machine so far, in
    apply order (restarts re-apply from 1; only the latest pass is
    kept). *)

val messages_dropped : t -> int

(** {2 Fault injection} *)

val crash : t -> int -> unit
val restart : t -> int -> unit

val partition : t -> int list list -> unit
(** Installs a partition: messages flow only within a group. Nodes not
    listed are isolated. *)

val heal : t -> unit

val set_drop_rate : t -> float -> unit
(** Uniform random message loss (deterministic from the engine RNG). *)
