module Traffic_matrix = Beehive_net.Traffic_matrix
module Series = Beehive_net.Series
module Platform = Beehive_core.Platform

type t = {
  s_locality : float;
  s_hotspot_share : float;
  s_hotspot_hive : int;
  s_total_inter_kb : float;
  s_peak_kbps : float;
  s_mean_kbps : float;
  s_migrations : int;
  s_merges : int;
  s_lock_rpcs : int;
  s_processed : int;
  s_live_bees : int;
  s_p50_us : int;
  s_p99_us : int;
  s_dead_letters : int;
  s_quarantined : int;
  s_membership : (string * int) list;
}

let measure matrix series platform =
  let rates = Series.rate_kbps series in
  let peak = Array.fold_left (fun a (_, v) -> max a v) 0.0 rates in
  let mean =
    if Array.length rates = 0 then 0.0
    else Array.fold_left (fun a (_, v) -> a +. v) 0.0 rates /. float_of_int (Array.length rates)
  in
  {
    s_locality = Traffic_matrix.locality_fraction matrix;
    s_hotspot_share = Traffic_matrix.hotspot_share matrix;
    s_hotspot_hive = Traffic_matrix.hotspot_hive matrix;
    s_total_inter_kb = Series.total series /. 1024.0;
    s_peak_kbps = peak;
    s_mean_kbps = mean;
    s_migrations = List.length (Platform.migrations platform);
    s_merges = Platform.total_bee_merges platform;
    s_lock_rpcs = Platform.total_lock_rpcs platform;
    s_processed = Platform.total_processed platform;
    s_live_bees = List.length (Platform.live_bees platform);
    s_p50_us = Option.value ~default:0 (Platform.message_latency_percentile platform 0.5);
    s_p99_us = Option.value ~default:0 (Platform.message_latency_percentile platform 0.99);
    s_dead_letters = (match Platform.store platform with
      | Some s -> List.length (Beehive_store.Store.dead_letters s)
      | None -> 0);
    s_quarantined = Platform.total_quarantined platform;
    s_membership =
      (* Platform gauges worth a summary line: cluster membership and
         the storage-integrity counters. *)
      List.filter
        (fun (k, _) ->
          String.starts_with ~prefix:"membership." k
          || String.starts_with ~prefix:"integrity." k)
        (Platform.gauges platform);
  }

let of_scenario sc =
  measure (Scenario.matrix sc) (Scenario.bandwidth sc) (Scenario.platform sc)

let pp fmt s =
  Format.fprintf fmt
    "@[<v>locality (diagonal share) : %.1f%%@,\
     hotspot hive              : %d (%.1f%% of traffic)@,\
     inter-hive total          : %.1f KB@,\
     inter-hive bandwidth      : mean %.1f KB/s, peak %.1f KB/s@,\
     migrations                : %d@,\
     bee merges                : %d@,\
     lock-service RPCs         : %d@,\
     messages processed        : %d@,\
     live bees                 : %d@,\
     message latency           : p50 <= %d us, p99 <= %d us@,\
     storage dead letters      : %d@,\
     quarantined messages      : %d"
    (100.0 *. s.s_locality) s.s_hotspot_hive
    (100.0 *. s.s_hotspot_share)
    s.s_total_inter_kb s.s_mean_kbps s.s_peak_kbps s.s_migrations s.s_merges
    s.s_lock_rpcs s.s_processed s.s_live_bees s.s_p50_us s.s_p99_us
    s.s_dead_letters s.s_quarantined;
  List.iter (fun (k, v) -> Format.fprintf fmt "@,%-26s: %d" k v) s.s_membership;
  Format.fprintf fmt "@]"
