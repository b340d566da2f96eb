type profile =
  | Migration
  | Durability
  | Raft
  | Partition
  | Elastic
  | Disk
  | All

type last_fault =
  | Latency_spike
  | Link_spike
  | Disk_damage

type spec = {
  sp_name : string;
  sp_mix : int * int * int * int * int * int * int * int;
  sp_last : last_fault;
  sp_durability : bool;
  sp_raft : bool;
  sp_detector : bool;
  sp_elastic : bool;
  sp_acked_workloads : bool;
}

(* One row per profile, in [--profile] listing order.

   Disk keeps raft off: consensus failover would recover a corrupted bee
   from a healthy peer as a side effect of ordinary crash handling,
   masking exactly the local detection/repair paths the profile exists to
   exercise. It gives read_all no width either (merges would strand
   damaged logs of merged-away bees), and turns the lin and outbox
   workloads off: they acknowledge at fsync, a promise disk damage
   deliberately breaks (a torn tail voids fsynced bytes), so the profile
   judges recovery against the post-fsck durable cut instead.

   The failure detector owns membership only in the fabric-fault and
   elastic profiles: there, eviction/rejoin of partitioned hives — and,
   for elastic, the quorum denominator tracking joins and decommissions —
   is the behavior under test. The crash profiles keep driving
   fail_hive/restart_hive by hand so their scripts stay the sole
   membership authority. *)
let table =
  [
    ( Migration,
      { sp_name = "migration"; sp_mix = (60, 72, 92, 92, 92, 92, 92, 100); sp_last = Latency_spike;
        sp_durability = false; sp_raft = false; sp_detector = false; sp_elastic = false;
        sp_acked_workloads = true } );
    ( Durability,
      { sp_name = "durability"; sp_mix = (50, 58, 73, 88, 88, 88, 88, 100); sp_last = Latency_spike;
        sp_durability = true; sp_raft = false; sp_detector = false; sp_elastic = false;
        sp_acked_workloads = true } );
    ( Raft,
      { sp_name = "raft"; sp_mix = (55, 55, 67, 85, 85, 85, 85, 100); sp_last = Latency_spike;
        sp_durability = true; sp_raft = true; sp_detector = false; sp_elastic = false;
        sp_acked_workloads = true } );
    ( Partition,
      { sp_name = "partition"; sp_mix = (45, 55, 65, 65, 80, 92, 92, 100); sp_last = Link_spike;
        sp_durability = true; sp_raft = false; sp_detector = true; sp_elastic = false;
        sp_acked_workloads = true } );
    ( Elastic,
      { sp_name = "elastic"; sp_mix = (40, 48, 58, 66, 70, 78, 96, 100); sp_last = Latency_spike;
        sp_durability = true; sp_raft = true; sp_detector = true; sp_elastic = true;
        sp_acked_workloads = true } );
    ( Disk,
      { sp_name = "disk"; sp_mix = (40, 40, 48, 60, 60, 60, 60, 100); sp_last = Disk_damage;
        sp_durability = true; sp_raft = false; sp_detector = false; sp_elastic = false;
        sp_acked_workloads = false } );
    ( All,
      { sp_name = "all"; sp_mix = (45, 55, 70, 85, 91, 96, 96, 100); sp_last = Latency_spike;
        sp_durability = true; sp_raft = true; sp_detector = false; sp_elastic = false;
        sp_acked_workloads = true } );
  ]

let spec p = List.assq p table
let all_profiles = List.map fst table
let profile_to_string p = (spec p).sp_name

let profile_of_string s =
  match List.find_opt (fun (_, sp) -> String.equal sp.sp_name s) table with
  | Some (p, _) -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown profile %S (%s)" s
         (String.concat "|" (List.map (fun (_, sp) -> sp.sp_name) table)))

type op =
  | Put of { at_us : int; key : int; from_hive : int }
  | Poison of { at_us : int; key : int; from_hive : int }
  | Read_all of { at_us : int; from_hive : int }
  | Migrate of { at_us : int; key : int; to_hive : int }
  | Fail of { at_us : int; hive : int }
  | Restart of { at_us : int; hive : int }
  | Spike of { at_us : int; factor : float; dur_us : int }
  | Drop_links of { at_us : int; loss : float; dur_us : int }
  | Partition_pair of { at_us : int; a : int; b : int }
  | Heal of { at_us : int }
  | Spike_link of { at_us : int; src : int; dst : int; factor : float; dur_us : int }
  | Add_hive of { at_us : int }
  | Drain_hive of { at_us : int; hive : int; decom : bool }
  | Decommission_hive of { at_us : int; hive : int }
  | Corrupt_record of { at_us : int; key : int }
  | Torn_tail of { at_us : int; key : int }
  | Snapshot_rot of { at_us : int; key : int }

let at_us = function
  | Put { at_us; _ }
  | Poison { at_us; _ }
  | Read_all { at_us; _ }
  | Migrate { at_us; _ }
  | Fail { at_us; _ }
  | Restart { at_us; _ }
  | Spike { at_us; _ }
  | Drop_links { at_us; _ }
  | Partition_pair { at_us; _ }
  | Heal { at_us; _ }
  | Spike_link { at_us; _ }
  | Add_hive { at_us; _ }
  | Drain_hive { at_us; _ }
  | Decommission_hive { at_us; _ }
  | Corrupt_record { at_us; _ }
  | Torn_tail { at_us; _ }
  | Snapshot_rot { at_us; _ } -> at_us

let sort_ops ops = List.stable_sort (fun a b -> Int.compare (at_us a) (at_us b)) ops

let has_crash ops =
  List.exists
    (function
      | Fail _
      (* Disk damage voids durable bytes just like a crash voids volatile
         ones: a later restart can legitimately lose the damaged suffix,
         so the exact no-loss monitor must stand down. *)
      | Corrupt_record _ | Torn_tail _ | Snapshot_rot _ -> true
      | _ -> false)
    ops

let pp_op ppf = function
  | Put { key; from_hive; _ } -> Format.fprintf ppf "put k%d from hive %d" key from_hive
  | Poison { key; from_hive; _ } ->
    Format.fprintf ppf "poison k%d from hive %d (handler always raises)" key from_hive
  | Read_all { from_hive; _ } ->
    Format.fprintf ppf "read-all from hive %d (whole-dict merge trigger)" from_hive
  | Migrate { key; to_hive; _ } ->
    Format.fprintf ppf "migrate owner(k%d) -> hive %d" key to_hive
  | Fail { hive; _ } -> Format.fprintf ppf "fail hive %d" hive
  | Restart { hive; _ } -> Format.fprintf ppf "restart hive %d" hive
  | Spike { factor; dur_us; _ } ->
    Format.fprintf ppf "latency spike x%.1f for %.3fms" factor
      (float_of_int dur_us /. 1000.0)
  | Drop_links { loss; dur_us; _ } ->
    Format.fprintf ppf "drop links: %.2f%% loss for %.3fms" (loss *. 100.0)
      (float_of_int dur_us /. 1000.0)
  | Partition_pair { a; b; _ } -> Format.fprintf ppf "partition hives %d <-/-> %d" a b
  | Heal _ -> Format.fprintf ppf "heal all partitions"
  | Spike_link { src; dst; factor; dur_us; _ } ->
    Format.fprintf ppf "latency spike x%.1f on link %d->%d for %.3fms" factor src dst
      (float_of_int dur_us /. 1000.0)
  | Add_hive _ -> Format.fprintf ppf "join a new hive"
  | Drain_hive { hive; decom; _ } ->
    Format.fprintf ppf "drain hive %d%s" hive
      (if decom then " (decommission on completion)" else "")
  | Decommission_hive { hive; _ } -> Format.fprintf ppf "decommission hive %d" hive
  | Corrupt_record { key; _ } ->
    Format.fprintf ppf "disk: flip a byte in a WAL record of owner(k%d)" key
  | Torn_tail { key; _ } ->
    Format.fprintf ppf "disk: tear the newest WAL record of owner(k%d)" key
  | Snapshot_rot { key; _ } ->
    Format.fprintf ppf "disk: rot the snapshot of owner(k%d)" key

let pp_timeline ppf ops =
  List.iteri
    (fun i op ->
      Format.fprintf ppf "[%3d] %9.3fms  %a@." i
        (float_of_int (at_us op) /. 1000.0)
        pp_op op)
    ops
