module Simtime = Beehive_sim.Simtime

let app_name = "beehive.instrumentation"
let dict_loads = "loads"
let kind_collect = "beehive.collect_tick"
let kind_optimize = "beehive.optimize_tick"
let kind_report = "beehive.hive_report"

(* ------------------------------------------------------------------ *)
(* Placement policies                                                   *)
(* ------------------------------------------------------------------ *)

type bee_load = {
  bl_bee : int;
  bl_hive : int;
  bl_processed : int;
  bl_in_by_hive : (int * float) list;
}

type decision = {
  d_bee : int;
  d_to_hive : int;
  d_reason : string;
}

type policy = Platform.t -> bee_load list -> decision list

(* The sum of a load's counts, left to right. A loop over a float ref
   keeps the running sum unboxed. *)
let total_count in_by_hive =
  let total = ref 0.0 and rest = ref in_by_hive and more = ref true in
  while !more do
    match !rest with
    | [] -> more := false
    | (_, c) :: tl ->
      total := !total +. c;
      rest := tl
  done;
  !total

(* [busiest]'s start: no hive, no count. *)
let no_hive = (-1, 0.0)

(* The first entry with the largest count, if that count is above
   [best]'s, else [best]. It hands back an entry of the list as it is,
   so the walk allocates nothing. *)
let rec busiest (best : int * float) = function
  | [] -> best
  | e :: rest -> busiest (if snd e > snd best then e else best) rest

(* [Printf]'s own conversion for [%.0f], without the format interpreter
   around it. *)
external format_float : string -> float -> string = "caml_format_float"

let greedy_source_policy ~min_messages : policy =
 fun _platform loads ->
  List.filter_map
    (fun l ->
      let total = total_count l.bl_in_by_hive in
      if total < float_of_int min_messages then None
      else begin
        let best_hive, best = busiest no_hive l.bl_in_by_hive in
        if best_hive >= 0 && best_hive <> l.bl_hive && best /. total > 0.5 then
          Some
            {
              d_bee = l.bl_bee;
              d_to_hive = best_hive;
              d_reason =
                "optimizer: "
                ^ format_float "%.0f" (100.0 *. best /. total)
                ^ "% of traffic from hive " ^ string_of_int best_hive;
            }
        else None
      end)
    loads

(* Each hive's summed [bl_processed]; a load on a hive outside [0, n)
   counts nowhere. *)
let per_hive_processed n loads =
  let per_hive = Array.make n 0 in
  List.iter
    (fun l ->
      if l.bl_hive >= 0 && l.bl_hive < n then
        per_hive.(l.bl_hive) <- per_hive.(l.bl_hive) + l.bl_processed)
    loads;
  per_hive

let load_balance_policy : policy =
 fun platform loads ->
  let n = Platform.n_hives platform in
  if n < 2 || loads = [] then []
  else begin
    let per_hive = per_hive_processed n loads in
    let busiest = ref 0 and calmest = ref 0 in
    Array.iteri
      (fun h v ->
        if v > per_hive.(!busiest) then busiest := h;
        if v < per_hive.(!calmest) then calmest := h)
      per_hive;
    let total = Array.fold_left ( + ) 0 per_hive in
    let avg = float_of_int total /. float_of_int n in
    if avg <= 0.0 || float_of_int per_hive.(!busiest) <= 2.0 *. avg then []
    else begin
      (* Shed the least-loaded active bee of the hot hive. *)
      let candidates =
        List.filter (fun l -> l.bl_hive = !busiest && l.bl_processed > 0) loads
        |> List.sort (fun a b -> Int.compare a.bl_processed b.bl_processed)
      in
      match candidates with
      | [] -> []
      | l :: _ ->
        [
          {
            d_bee = l.bl_bee;
            d_to_hive = !calmest;
            d_reason =
              Printf.sprintf "load-balance: hive %d at %d msgs vs avg %.0f" !busiest
                per_hive.(!busiest) avg;
          };
        ]
    end
  end

(* Seeds empty hives: when a placeable hive reports zero load while
   others are busy, pull the busiest bees onto it, round-robin across all
   empty hives — the join half of elastic membership. A freshly joined
   hive has no bees, so neither the greedy-source nor the load-balance
   policy would ever send anything there on its own. *)
let scale_out_policy : policy =
 fun platform loads ->
  let n = Platform.n_hives platform in
  if n < 2 || loads = [] then []
  else begin
    let per_hive = per_hive_processed n loads in
    let empty =
      List.filter
        (fun h -> Platform.placeable platform h && per_hive.(h) = 0)
        (List.init n (fun h -> h))
    in
    if empty = [] then []
    else begin
      let movable =
        List.filter (fun l -> l.bl_processed > 0) loads
        |> List.sort (fun a b -> Int.compare b.bl_processed a.bl_processed)
      in
      let targets = Array.of_list empty in
      let budget = 4 * Array.length targets in  (* four moves per empty hive *)
      let k = ref 0 in
      List.filteri (fun i _ -> i < budget) movable
      |> List.map (fun l ->
             let dst = targets.(!k mod Array.length targets) in
             incr k;
             {
               d_bee = l.bl_bee;
               d_to_hive = dst;
               d_reason = Printf.sprintf "scale-out: seeding empty hive %d" dst;
             })
    end
  end

let combined_policy policies : policy =
 fun platform loads ->
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun p ->
      List.filter
        (fun d ->
          if Hashtbl.mem seen d.d_bee then false
          else begin
            Hashtbl.add seen d.d_bee ();
            true
          end)
        (p platform loads))
    policies

(* ------------------------------------------------------------------ *)
(* Configuration                                                        *)
(* ------------------------------------------------------------------ *)

let decay = 0.5
let max_migrations_per_round = 64

type config = {
  window : Simtime.t;
  optimize_every : Simtime.t;
  optimize : bool;
  policy : policy;
}

let default_config =
  {
    window = Simtime.of_sec 1.0;
    optimize_every = Simtime.of_sec 5.0;
    optimize = true;
    policy = greedy_source_policy ~min_messages:5;
  }

(* ------------------------------------------------------------------ *)
(* The instrumentation application                                      *)
(* ------------------------------------------------------------------ *)

type Message.payload +=
  | Collect_tick
  | Optimize_tick
  | Hive_report of (int * (int * int) list) list
      (* one hive's windows: each reported bee with its window's
         per-source-hive counts *)

(* A bee's stored load: its decayed per-source-hive counts, in hive order. *)
type Value.t += V_load of (int * float) list

let () =
  Value.register_size (function
    | V_load in_by_hive -> Some (32 + (12 * List.length in_by_hive))
    | _ -> None)

type handle = {
  platform : Platform.t;
  cfg : config;
  performed : int ref;
}

(* Merge a window's per-hive counts into the decayed history. Both are
   sorted by hive, one entry per hive: the history is this function's
   own output (decay keeps its order), the window is [Stats.take_window]'s. *)
let[@tail_mod_cons] rec merge_counts history window =
  match (history, window) with
  | _, [] -> history
  | [], (h, c) :: rest -> (h, float_of_int c) :: merge_counts [] rest
  | ((hh, hc) as old) :: history', (h, c) :: rest ->
    if hh < h then old :: merge_counts history' window
    else if hh = h then (h, hc +. float_of_int c) :: merge_counts history' rest
    else (h, float_of_int c) :: merge_counts history rest

(* Conses the policy's view of one stored load onto [acc]: the bee's live
   hive and the truncated sum of its decayed counts. A bee that is no
   longer live adds nothing. *)
let cons_load platform key in_by_hive acc =
  let bee = int_of_string key in
  match Platform.live_bee_hive platform bee with
  | None -> acc
  | Some hive ->
    {
      bl_bee = bee;
      bl_hive = hive;
      bl_processed = int_of_float (total_count in_by_hive);
      bl_in_by_hive = in_by_hive;
    }
    :: acc

(* A load's counts after one round of decay, the entries that faded out
   dropped, in the same order. *)
let[@tail_mod_cons] rec decayed = function
  | [] -> []
  | (h, c) :: rest ->
    let c = c *. decay in
    if c < 0.25 then decayed rest else (h, c) :: decayed rest

(* Entries name distinct bees, so their order in a report does not
   matter: the collector conses them as it walks. *)
let collector_handler platform =
  App.handler ~kind:kind_collect
    ~map:(fun _ -> Mapping.Local)
    (fun ctx _msg ->
      let hive = Context.hive_id ctx in
      let entries = ref [] in
      Platform.iter_windows platform ~hive (fun ~bee ~app (w : Stats.window) ->
          if w.Stats.w_processed > 0 && not (String.equal app app_name) then
            entries := (bee, w.Stats.w_in_by_hive) :: !entries);
      let entries = !entries in
      if entries <> [] then
        Context.emit ctx
          ~size:(16 + (24 * List.length entries))
          ~kind:kind_report
          (Hive_report entries))

(* The window [merge_window] merges, set just before the
   [Context.update] that calls it, so the updater is a top-level
   function and an entry builds no closure. The update calls it at once,
   and one domain runs one handler at a time. *)
let merging = ref []

let merge_window prev =
  let history = match prev with Some (V_load l) -> l | Some _ | None -> [] in
  Some (V_load (merge_counts history !merging))

(* The aggregator's and the optimizer's one mapping, built once. *)
let all_loads = Mapping.whole_dict dict_loads

let aggregator_handler =
  App.handler ~kind:kind_report
    ~map:(fun _ -> all_loads)
    (fun ctx msg ->
      match msg.Message.payload with
      | Hive_report entries ->
        List.iter
          (fun (bee, window) ->
            merging := window;
            Context.update ctx ~dict:dict_loads ~key:(string_of_int bee) merge_window)
          entries;
        merging := []
      | _ -> ())

let optimizer_handler handle =
  let { platform; cfg; performed } = handle in
  App.handler ~kind:kind_optimize
    ~map:(fun _ -> all_loads)
    (fun ctx _msg ->
      (* Materialize the aggregated view. *)
      let view = ref [] in
      Context.iter_dict ctx ~dict:dict_loads (fun key v ->
          match v with
          | V_load in_by_hive -> view := cons_load platform key in_by_hive !view
          | _ -> ());
      let loads = List.rev !view in
      (if cfg.optimize then begin
         let budget = ref max_migrations_per_round in
         List.iter
           (fun d ->
             if !budget > 0 then begin
               decr budget;
               if
                 Platform.migrate_bee platform ~bee:d.d_bee ~to_hive:d.d_to_hive
                   ~reason:d.d_reason
               then incr performed
             end)
           (cfg.policy platform loads)
       end);
      (* Decay history; forget entries that faded out. The iteration
         does not see its own writes. *)
      Context.iter_dict ctx ~dict:dict_loads (fun key v ->
          match v with
          | V_load in_by_hive -> (
            match decayed in_by_hive with
            | [] -> Context.del ctx ~dict:dict_loads ~key
            | in_by_hive -> Context.set ctx ~dict:dict_loads ~key (V_load in_by_hive))
          | _ -> ()))

let install platform cfg =
  let handle = { platform; cfg; performed = ref 0 } in
  let timers =
    [
      App.timer ~kind:kind_collect ~period:cfg.window ~size:16 (fun ~now:_ -> Collect_tick);
      App.timer ~kind:kind_optimize ~period:cfg.optimize_every ~size:16 (fun ~now:_ ->
          Optimize_tick);
    ]
  in
  let app =
    App.create ~name:app_name ~dicts:[ dict_loads ] ~timers
      [ collector_handler platform; aggregator_handler; optimizer_handler handle ]
  in
  Platform.register_app platform app;
  handle

let loads handle =
  Platform.read_dict handle.platform ~app:app_name ~dict:dict_loads
  |> List.fold_left
       (fun acc -> function
         | key, V_load in_by_hive -> cons_load handle.platform key in_by_hive acc
         | _ -> acc)
       []
  |> List.sort (fun a b -> Int.compare a.bl_bee b.bl_bee)

let performed_migrations handle = !(handle.performed)
