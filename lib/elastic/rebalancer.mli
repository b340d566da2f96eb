(** Placement decisions for elastic membership.

    The drain half of the rebalancer: picks destinations for bees
    leaving a draining hive (respecting [hive_capacity]) and drives the
    evacuation, one {!Beehive_core.Platform.migrate_bee} per bee per
    step. The join half — pulling bees {e onto} a freshly joined empty
    hive — is traffic-driven and lives in
    {!Beehive_core.Instrumentation.scale_out_policy}. *)

val evacuate_step :
  Beehive_core.Platform.t -> hive:int -> reason:string -> int
(** Attempts to live-migrate every movable non-local bee off [hive] to
    the least-loaded placeable hive with room for its cells; returns the number of migrations started.
    Busy or mid-migration bees are skipped this step and retried on the
    next — call repeatedly (the {!Membership} pump does) until
    {!Beehive_core.Platform.drain_complete}. *)
