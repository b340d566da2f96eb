(* Corybantic coordination: rounds, proposals, evaluations, adoption. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module Cory = Beehive_apps.Corybantic

(* Two modules with opposed objectives: the bandwidth module's proposal
   is worth +10 to itself but -2 to the energy module; the energy
   module's is worth +3 to itself and +2 to bandwidth. Totals: 8 vs 5 —
   bandwidth wins every round it proposes. *)
let bandwidth_module =
  Cory.module_app ~name:"mod.bandwidth"
    ~propose:(fun ~round -> if round mod 2 = 1 then Some ("reroute", round) else None)
    ~evaluate:(fun ~kind ~arg:_ ->
      match kind with "reroute" -> 10.0 | "power-off" -> 2.0 | _ -> 0.0)

let energy_module =
  Cory.module_app ~name:"mod.energy"
    ~propose:(fun ~round:_ -> Some ("power-off", 7))
    ~evaluate:(fun ~kind ~arg:_ ->
      match kind with "reroute" -> -2.0 | "power-off" -> 3.0 | _ -> 0.0)

let setup () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:4) in
  Platform.register_app platform (Cory.coordinator_app ());
  Platform.register_app platform bandwidth_module;
  Platform.register_app platform energy_module;
  Platform.start platform;
  (engine, platform)

let test_rounds_progress () =
  let engine, platform = setup () in
  Engine.run_until engine (Simtime.of_sec 5.5);
  Alcotest.(check bool) "several rounds opened" true (Cory.current_round platform >= 4)

let test_adoption_picks_max_total () =
  let engine, platform = setup () in
  Engine.run_until engine (Simtime.of_sec 7.5);
  let adopted = Cory.adopted platform in
  Alcotest.(check bool) "decisions made" true (List.length adopted >= 4);
  List.iter
    (fun (round, _, winner, value) ->
      if round mod 2 = 1 then begin
        (* Both proposed: reroute totals 10-2=8, power-off 3+2=5. *)
        Alcotest.(check string)
          (Printf.sprintf "round %d winner" round)
          "mod.bandwidth" winner;
        Alcotest.(check (float 0.001)) "total value" 8.0 value
      end
      else begin
        (* Only the energy module proposed. *)
        Alcotest.(check string)
          (Printf.sprintf "round %d winner" round)
          "mod.energy" winner;
        Alcotest.(check (float 0.001)) "total value" 5.0 value
      end)
    adopted

let test_modules_are_decoupled () =
  (* Modules share no state with the coordinator: they are separate apps
     with their own bees. *)
  let engine, platform = setup () in
  Engine.run_until engine (Simtime.of_sec 3.0);
  let apps =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (v : Platform.bee_view) ->
           if v.Platform.view_is_local then None else Some v.Platform.view_app)
         (Platform.live_bees platform))
  in
  Alcotest.(check (list string)) "three independent apps"
    [ "corybantic.coordinator"; "mod.bandwidth"; "mod.energy" ]
    apps

let test_adopted_events_emitted () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:4) in
  let seen = ref [] in
  let listener =
    Beehive_core.App.create ~name:"test.listen" ~dicts:[ "x" ]
      [
        Beehive_core.App.handler ~kind:Cory.k_adopted
          ~map:(fun _ -> Beehive_core.Mapping.Local)
          (fun _ msg ->
            match msg.Beehive_core.Message.payload with
            | Cory.Adopted { ad_round; ad_module; _ } -> seen := (ad_round, ad_module) :: !seen
            | _ -> ());
      ]
  in
  Platform.register_app platform (Cory.coordinator_app ());
  Platform.register_app platform energy_module;
  Platform.register_app platform listener;
  Platform.start platform;
  Engine.run_until engine (Simtime.of_sec 4.5);
  Alcotest.(check bool) "adoption events broadcast" true (List.length !seen >= 2);
  List.iter
    (fun (_, m) -> Alcotest.(check string) "single module always wins" "mod.energy" m)
    !seen

let suite =
  [
    ( "corybantic",
      [
        Alcotest.test_case "rounds progress" `Quick test_rounds_progress;
        Alcotest.test_case "adoption picks max total value" `Quick
          test_adoption_picks_max_total;
        Alcotest.test_case "modules decoupled" `Quick test_modules_are_decoupled;
        Alcotest.test_case "adopted events emitted" `Quick test_adopted_events_emitted;
      ] );
  ]
