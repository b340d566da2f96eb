module Rng = Beehive_sim.Rng

let n_keys = 6

let generate ~rng ~profile ~n_hives ~ticks =
  if ticks <= 0 then invalid_arg "Nemesis.generate: ticks must be positive";
  let horizon_us = ticks * 1000 in
  let n_ops = 20 + ticks in
  let spec = Script.spec profile in
  let p_put, p_read, p_mig, p_fail, p_drop, p_part, p_elastic, _ = spec.Script.sp_mix in
  (* Elastic scripts may target hives that only exist once a mid-run join
     lands; the runner treats ops aimed at not-yet-joined ids as no-ops. *)
  let id_space = if spec.Script.sp_elastic then n_hives + 2 else n_hives in
  let ops = ref [] in
  let push op = ops := op :: !ops in
  for _ = 1 to n_ops do
    let at_us = Rng.int rng horizon_us in
    let roll = Rng.int rng 100 in
    if roll < p_put then
      push (Script.Put { at_us; key = Rng.int rng n_keys; from_hive = Rng.int rng id_space })
    else if roll < p_read then push (Script.Read_all { at_us; from_hive = Rng.int rng id_space })
    else if roll < p_mig then
      push (Script.Migrate { at_us; key = Rng.int rng n_keys; to_hive = Rng.int rng id_space })
    else if roll < p_fail then begin
      let hive = Rng.int rng id_space in
      push (Script.Fail { at_us; hive });
      (* Usually bring it back while the run is still hot, so recovery
         races against live traffic instead of only against the final
         heal. *)
      if Rng.int rng 10 < 8 then
        push
          (Script.Restart
             { at_us = min horizon_us (at_us + 1000 + Rng.int rng 8000) ; hive })
    end
    else if roll < p_drop then
      (* A lossy window: 0.5%..5% on every inter-hive link. The
         transport must mask it entirely. *)
      push
        (Script.Drop_links
           {
             at_us;
             loss = 0.005 +. Rng.float rng 0.045;
             dur_us = 2000 + Rng.int rng 8000;
           })
    else if roll < p_part then begin
      if Rng.int rng 10 < 3 then begin
        (* Isolate one hive from every peer, long enough for the
           detector to confirm suspicion, evict it and (after the heal)
           walk it back in — the false-positive path. In the elastic
           profile this can hit a freshly joined hive: isolation right
           after a join is one of the drain-under-fault corpus shapes. *)
        let hive = Rng.int rng id_space in
        let dur_us = 4000 + Rng.int rng 10_000 in
        for p = 0 to id_space - 1 do
          if p <> hive then push (Script.Partition_pair { at_us; a = hive; b = p })
        done;
        push (Script.Heal { at_us = min horizon_us (at_us + dur_us) })
      end
      else begin
        (* A pairwise cut: below quorum, so nobody gets evicted and
           traffic between the pair just buffers until the heal. *)
        let a = Rng.int rng id_space in
        let b = Rng.int rng id_space in
        if a <> b then begin
          push (Script.Partition_pair { at_us; a; b });
          push
            (Script.Heal { at_us = min horizon_us (at_us + 2000 + Rng.int rng 8000) })
        end
      end
    end
    else if roll < p_elastic then begin
      (* Membership churn. Drains and decommissions aim anywhere in the
         id space — including hives that join mid-run, and hives that are
         crashed, already draining, or not yet joined at apply time (the
         runner and the membership guards turn those into no-ops). *)
      let sub = Rng.int rng 10 in
      if sub < 4 then push (Script.Add_hive { at_us })
      else if sub < 8 then
        push
          (Script.Drain_hive
             { at_us; hive = Rng.int rng id_space; decom = Rng.int rng 2 = 0 })
      else push (Script.Decommission_hive { at_us; hive = Rng.int rng id_space })
    end
    else
      match spec.Script.sp_last with
      | Script.Disk_damage ->
        (* Disk damage aims at a key's owner so shrinking keeps the target
           stable as the script thins out. Bias toward record damage:
           flips exercise detection + repair, tears exercise
           crash-consistent truncation, rot exercises the cold-bytes
           path. *)
        let key = Rng.int rng n_keys in
        let sub = Rng.int rng 100 in
        if sub < 40 then push (Script.Corrupt_record { at_us; key })
        else if sub < 75 then push (Script.Torn_tail { at_us; key })
        else push (Script.Snapshot_rot { at_us; key })
      | Script.Link_spike ->
        push
          (Script.Spike_link
             {
               at_us;
               src = Rng.int rng n_hives;
               dst = Rng.int rng n_hives;
               factor = float_of_int (2 + Rng.int rng 14);
               dur_us = 500 + Rng.int rng 4000;
             })
      | Script.Latency_spike ->
        push
          (Script.Spike
             {
               at_us;
               factor = float_of_int (2 + Rng.int rng 14);
               dur_us = 500 + Rng.int rng 4000;
             })
  done;
  Script.sort_ops (List.rev !ops)
