(** Heartbeat-based hive failure detector.

    Every hive gossips a 16-byte heartbeat to every other hive each
    500 us over the raw failable wire (deliberately {e not} the reliable
    transport: silence must mean something). A check every 1 ms accrues
    suspicion per subject hive: when a majority of current membership
    has heard nothing from it for 3 ms, for 2 consecutive checks, the
    suspicion is confirmed — detection in roughly 5 ms of simulated
    time — and the detector acts:

    - if the hive's process is genuinely dead ({!Platform.hive_crashed}),
      it triggers {!Platform.failover_hive} — the recovery that tests
      previously had to invoke by hand;
    - otherwise it {!Platform.evict_hive}s the hive: its bees are
      fenced in place with their mailboxes and state, and a replicated
      bee fails over instead, which ends its old life.

    False positives heal: any heartbeat from an evicted-but-running hive
    that reaches a member rejoins it ({!Platform.rejoin_hive} resumes its
    fenced bees — nothing is lost). Heartbeats carry no incarnation: a
    fenced bee runs nothing, so a deposed hive has no stale work to reject.

    The majority quorum is computed over {e current} membership, read
    from the platform ({!Platform.members}): hives joined via
    {!Platform.add_hive} enter the denominator and decommissioned hives
    leave it, so after a 5-to-3 shrink two observers are a majority
    again, while a 2-hive minority of a 5-hive cluster can never evict
    the other three. *)

type t

val install : Platform.t -> t
(** Starts the gossip and check loops on the platform's engine and
    subscribes to {!Platform.on_hive}: restarted and joined hives enter
    with a fresh grace period. Install once per platform. *)

val quorum : t -> int
(** Votes needed to confirm a suspicion: a majority of current
    membership. *)

val member_count : t -> int
(** Hives in current membership: the quorum denominator. *)

val is_member : t -> int -> bool
(** Whether a hive is in current membership: a valid id not
    decommissioned (joins enter it, decommissions leave it). *)

val suspected : t -> int list
(** Hives currently evicted (confirmed suspicions not yet healed),
    ascending. *)

val evictions : t -> int
(** Confirmed suspicions so far (including correct detections). *)
