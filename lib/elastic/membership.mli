(** Runtime hive membership: join, drain, decommission.

    The orchestrator of the elastic subsystem. A [Membership.t] wraps a
    running {!Beehive_core.Platform.t} and drives the per-hive lifecycle

    {v alive -> draining -> decommissioned v}

    - {b join} ({!add_hive}) — the platform grows its channel matrix and
      transport endpoints, the failure detector's quorum denominator
      (read from {!Beehive_core.Platform.members}) widens, and raft
      replication (when installed) anchors a fresh group at the new
      hive. Pair with
      {!Beehive_core.Instrumentation.scale_out_policy} to pull load onto
      the newcomer.
    - {b drain} ({!drain}) — the hive stops accepting new cells
      (placement redirects elsewhere), raft replication (when installed)
      hands its group memberships off on the platform's [Draining]
      event, and an evacuation pump live-migrates its bees out until
      the hive owns zero cells with zero in-flight inbound transfers
      and no undelivered transport message to or from it.
      Evacuees go to {!Beehive_core.Platform.least_loaded_hive}.
    - {b decommission} ({!decommission}) — only legal once the drain is
      complete, and while at least 2 other members (crashed or fenced
      ones included) are not draining: the hive leaves {!Beehive_core.Platform.members} (and so
      the failure detector's quorum), its links close, and its id is
      retired (never reused). *)

type t

val create : Beehive_core.Platform.t -> t
(** Installs the evacuation pump on the platform's engine. *)

val add_hive : t -> int
(** Joins one new hive and returns its id (= previous hive count). *)

val drain : t -> ?auto_decommission:bool -> int -> bool
(** [drain t h] begins draining hive [h]. Returns [false] (and does
    nothing) if [h] is not alive, is already draining or decommissioned,
    or fewer than 2 placeable hives would remain. With
    [~auto_decommission:true] the hive is decommissioned the moment the
    drain completes. *)

val cancel_drain : t -> int -> bool
(** Aborts an in-progress drain, returning the hive to placeable.
    Already-migrated bees stay where they landed. [false] if [hive] has
    no active drain. *)

val decommission : t -> int -> bool
(** Permanently removes a fully drained hive (see
    {!Beehive_core.Platform.decommission_hive}). [true] if the hive is
    now (or already was) decommissioned; [false] if its drain is
    incomplete or fewer than 2 members other than the hive would remain
    not draining. *)

val drain_completed : t -> int -> bool
(** Whether hive [h]'s newest drain completed
    ({!Beehive_core.Platform.drain_complete} held at a pump step); there
    are no completion callbacks. [false] while draining, once cancelled,
    or without a drain. *)

val auto_decommission : t -> int -> bool
(** Whether hive [h]'s newest drain asked for auto-decommission. *)

val draining : t -> int list
(** Hives with an active (incomplete) drain, ascending. *)

(** {1 Counters} (also read as [membership.*] gauges through {!gauges}) *)

val joins : t -> int

val rebalance_migrations : t -> int
(** Migrations attributed to elasticity: the entries of
    {!Beehive_core.Platform.migrations} whose reason starts with
    ["drain:"] or ["scale-out:"]. *)

val last_drain_us : t -> int
(** Duration of the most recently completed drain, in simulated
    microseconds; [0] before any drain completes. *)

val gauges : t -> (string * int) list
(** The counters above as [membership.*] gauges, sorted by name, plus
    [drains_started], [drains_completed] and [decommissions]. They sit
    next to the per-state hive breakdown of
    {!Beehive_core.Platform.gauges}; readers merge the two lists. *)
