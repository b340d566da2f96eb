(** Client-operation histories.

    A Jepsen-style recorder for the linearizability checker: each logical
    client operation appears as an [invoke] entry paired with at most one
    [ok]/[fail] completion, all stamped with simulated time. Operations
    still open when the history is read out surface as [Info] entries —
    "maybe happened, maybe not" — whose linearization interval extends to
    the end of time.

    The recorder itself knows nothing about where the operations execute;
    the workload driver (see {!Runner}) wires completions to the
    platform's commit and group-commit (fsync) boundaries so that an [Ok]
    entry really is a durable acknowledgement. *)

type call =
  | Get of string
  | Put of string * int
  | Del of string
  | Txn of (string * int) list
      (** Atomic multi-key swap: writes every [k=v] pair and returns the
          values the keys held before, in order. *)

type outcome =
  | Got of int option  (** [Get] result; [None] = key absent *)
  | Done  (** [Put]/[Del] acknowledged *)
  | Old of int option list  (** [Txn] pre-images, in call order *)

type status =
  | Ok of outcome  (** completed; the outcome is what the client saw *)
  | Fail  (** definitely did not execute *)
  | Info  (** outcome unknown (still open, or voided by a crash) *)

type op = {
  op_id : int;
  op_client : int;
  op_call : call;
  op_invoked : Beehive_sim.Simtime.t;
  op_returned : Beehive_sim.Simtime.t option;
      (** [None] iff [op_status = Info] *)
  op_status : status;
}

val keys : call -> string list
(** The dictionary keys a call touches. *)

type t

val create : unit -> t

val invoke : t -> client:int -> now:Beehive_sim.Simtime.t -> call -> int
(** Opens an operation and returns its id (ids are dense from 0, so the
    driver can double as a unique-value generator). *)

val complete_ok : t -> id:int -> now:Beehive_sim.Simtime.t -> outcome -> unit

val on_complete : t -> id:int -> (unit -> unit) -> unit
(** Runs [f] when the operation closes (immediately if it already has) —
    how a client loop chains its next operation. *)

val ops : t -> op list
(** The full history, sorted by invocation time: every closed operation
    plus an [Info] entry for each still-open one. *)

val n_invoked : t -> int

val pp_ops : Format.formatter -> op list -> unit
