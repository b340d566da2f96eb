type severity =
  | Info
  | Warning
  | Critical

type item = {
  severity : severity;
  app : string option;
  title : string;
  detail : string;
}

let severity_rank = function Critical -> 0 | Warning -> 1 | Info -> 2

let group_by_app views =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v : Platform.bee_view) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl v.Platform.view_app) in
      Hashtbl.replace tbl v.Platform.view_app (v :: prev))
    views;
  Hashtbl.fold (fun app vs acc -> (app, List.rev vs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let check_centralization platform =
  let views =
    List.filter
      (fun (v : Platform.bee_view) ->
        (not v.Platform.view_is_local)
        (* The instrumentation aggregator is centralized by design. *)
        && not (String.equal v.Platform.view_app Instrumentation.app_name))
      (Platform.live_bees platform)
  in
  List.concat_map
    (fun (app, bees) ->
      let wildcard_items =
        List.concat_map
          (fun (v : Platform.bee_view) ->
            let wild =
              Cell.Set.filter Cell.is_wildcard v.Platform.view_cells |> Cell.Set.elements
            in
            List.map
              (fun (c : Cell.t) ->
                {
                  severity = Critical;
                  app = Some app;
                  title = "whole-dictionary access";
                  detail =
                    Format.asprintf
                      "a handler maps the whole dictionary %s; all its cells collocate \
                       on bee %d (hive %d), so every function sharing %s is effectively \
                       centralized — decouple it or shard the dictionary"
                      c.Cell.dict v.Platform.view_id v.Platform.view_hive c.Cell.dict;
                })
              wild)
          bees
      in
      let loads =
        List.map
          (fun (v : Platform.bee_view) ->
            match Platform.bee_stats platform v.Platform.view_id with
            | Some s -> (v, Stats.processed s)
            | None -> (v, 0))
          bees
      in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 loads in
      let concentration_items =
        if total < 100 || List.length bees < 2 then []
        else begin
          let (top_bee : Platform.bee_view), top_n =
            List.fold_left
              (fun ((_, bn) as best) (v, n) -> if n > bn then (v, n) else best)
              (List.hd loads |> fst, -1)
              loads
          in
          let share = float_of_int top_n /. float_of_int total in
          if share > 0.8 then
            [
              {
                severity = Critical;
                app = Some app;
                title = "effectively centralized";
                detail =
                  Printf.sprintf
                    "bee %d on hive %d handled %.0f%% of the app's %d messages; the \
                     app gains nothing from the distributed control plane"
                    top_bee.Platform.view_id top_bee.Platform.view_hive (100.0 *. share)
                    total;
              };
            ]
          else if share > 0.5 then
            [
              {
                severity = Warning;
                app = Some app;
                title = "load concentration";
                detail =
                  Printf.sprintf "bee %d handles %.0f%% of the app's messages"
                    top_bee.Platform.view_id (100.0 *. share);
              };
            ]
          else []
        end
      in
      wildcard_items @ concentration_items)
    (group_by_app views)

let check_locality platform =
  let m = Beehive_net.Channels.matrix (Platform.channels platform) in
  let total = Beehive_net.Traffic_matrix.total_bytes m in
  if total < 1024.0 then []
  else begin
    let loc = Beehive_net.Traffic_matrix.locality_fraction m in
    let hot = Beehive_net.Traffic_matrix.hotspot_share m in
    let hot_hive = Beehive_net.Traffic_matrix.hotspot_hive m in
    let items = ref [] in
    if hot > 0.6 then
      items :=
        {
          severity = Critical;
          app = None;
          title = "control-channel hotspot";
          detail =
            Printf.sprintf
              "%.0f%% of inter-hive control traffic touches hive %d — most messages \
               are sent to/from bees on one hive"
              (100.0 *. hot) hot_hive;
        }
        :: !items;
    if loc < 0.5 then
      items :=
        {
          severity = Warning;
          app = None;
          title = "poor processing locality";
          detail =
            Printf.sprintf
              "only %.0f%% of control traffic is processed on the hive where it \
               originates; consider decoupling shared state or enabling the placement \
               optimizer"
              (100.0 *. loc);
        }
        :: !items;
    List.rev !items
  end

let check_hive_balance platform =
  let n = Platform.n_hives platform in
  let busy = Array.make n 0 in
  List.iter
    (fun (v : Platform.bee_view) ->
      match Platform.bee_stats platform v.Platform.view_id with
      | Some s -> busy.(v.Platform.view_hive) <- busy.(v.Platform.view_hive) + Stats.busy_us s
      | None -> ())
    (Platform.live_bees platform);
  let total = Array.fold_left ( + ) 0 busy in
  if total < 1000 || n < 2 then []
  else begin
    let top = ref 0 in
    Array.iteri (fun h b -> if b > busy.(!top) then top := h) busy;
    let share = float_of_int busy.(!top) /. float_of_int total in
    if share > 2.0 /. float_of_int n && share > 0.5 then
      [
        {
          severity = Warning;
          app = None;
          title = "hive load imbalance";
          detail =
            Printf.sprintf "hive %d accounts for %.0f%% of total processing time" !top
              (100.0 *. share);
        };
      ]
    else []
  end

let check_queues platform =
  List.filter_map
    (fun (v : Platform.bee_view) ->
      if v.Platform.view_queue > 100 then
        Some
          {
            severity = Warning;
            app = Some v.Platform.view_app;
            title = "mailbox backlog";
            detail =
              Printf.sprintf "bee %d on hive %d has %d queued messages"
                v.Platform.view_id v.Platform.view_hive v.Platform.view_queue;
          }
      else None)
    (Platform.live_bees platform)

let analyze platform =
  check_centralization platform @ check_locality platform
  @ check_hive_balance platform @ check_queues platform
  |> List.stable_sort (fun a b -> Int.compare (severity_rank a.severity) (severity_rank b.severity))

let pp_severity fmt = function
  | Critical -> Format.pp_print_string fmt "CRITICAL"
  | Warning -> Format.pp_print_string fmt "WARNING"
  | Info -> Format.pp_print_string fmt "INFO"

let pp_item fmt i =
  Format.fprintf fmt "[%a]%s %s: %s" pp_severity i.severity
    (match i.app with Some a -> " app " ^ a ^ ":" | None -> "")
    i.title i.detail

let pp fmt items =
  if items = [] then Format.pp_print_string fmt "no findings"
  else
    Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_item fmt items
