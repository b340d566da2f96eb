(** The fault scheduler.

    Generates a {!Script} from a splittable RNG seed: a dense workload of
    keyed puts interleaved with profile-specific faults (hive crashes and
    restarts, live migrations, whole-dict merge triggers, link latency
    spikes, lossy-link windows, pairwise partitions and whole-hive
    isolations with paired heals) at randomized simulated times.
    Generation is pure — it never
    touches a platform — so a seed fully determines the script, and a
    printed seed is a complete reproduction recipe. *)

val generate :
  rng:Beehive_sim.Rng.t ->
  profile:Script.profile ->
  n_hives:int ->
  ticks:int ->
  Script.op list
(** [ticks] is the fault-injection horizon in simulated milliseconds.
    Produces roughly [20 + ticks] ops, time-sorted. Every generated
    [Fail] usually schedules a matching [Restart] a few milliseconds
    later, so crashed hives exercise recovery in-run (the runner heals
    any still-failed hive after the horizon regardless). *)
