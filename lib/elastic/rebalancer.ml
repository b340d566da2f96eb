module Platform = Beehive_core.Platform
module Registry = Beehive_core.Registry
module Cell = Beehive_core.Cell

let pick_destination platform ?(exclude = []) ?(cells = 0) () =
  let n = Platform.n_hives platform in
  let cap = (Platform.config platform).Platform.hive_capacity in
  let reg = Platform.registry platform in
  let best = ref None in
  for h = 0 to n - 1 do
    if Platform.placeable platform h && not (List.mem h exclude) then begin
      let c = Registry.cells_on_hive reg ~hive:h in
      if c + cells <= cap then
        match !best with
        | Some (_, bc) when bc <= c -> ()
        | _ -> best := Some (h, c)
    end
  done;
  Option.map fst !best

let evacuate_step platform ~hive ~reason =
  let moved = ref 0 in
  List.iter
    (fun (v : Platform.bee_view) ->
      if v.Platform.view_hive = hive && (not v.Platform.view_is_local) && v.Platform.view_alive
      then
        let cells = Cell.Set.cardinal v.Platform.view_cells in
        match pick_destination platform ~exclude:[ hive ] ~cells () with
        | None -> ()
        | Some dst ->
          if Platform.migrate_bee platform ~bee:v.Platform.view_id ~to_hive:dst ~reason
          then incr moved)
    (Platform.live_bees platform);
  !moved
