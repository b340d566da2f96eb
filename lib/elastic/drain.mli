(** Per-hive drain record: the [alive -> draining -> decommissioned]
    state machine's middle leg.

    A drain starts when {!Membership.drain} marks the hive, and completes
    (exactly once) when the hive owns zero cells, hosts no live non-local
    bee, and has no migration in flight toward it — the evacuation pump
    in {!Membership} decides when, this module just records it. *)

type state =
  | Draining
  | Completed

type t

val start :
  hive:int ->
  now:Beehive_sim.Simtime.t ->
  auto_decommission:bool ->
  t

val hive : t -> int
val state : t -> state

val auto_decommission : t -> bool
(** Whether {!Membership} should decommission the hive as soon as the
    drain completes. *)

val complete : t -> now:Beehive_sim.Simtime.t -> unit
(** Transitions to [Completed]. Idempotent. *)

val duration_us : t -> int option
(** Simulated microseconds from drain start to completion; [None] while
    still draining. *)
