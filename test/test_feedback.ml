(* Design-bottleneck feedback analytics. *)

open Helpers
module Feedback = Beehive_core.Feedback

let test_wildcard_flagged () =
  let engine, platform = make_platform ~apps:[ kv_app ~with_whole_dict_reader:true () ] () in
  for i = 0 to 5 do
    put platform ~from:(i mod 4) ~key:(Printf.sprintf "k%d" i) ~value:1
  done;
  drain engine;
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:k_get_all Get_all;
  drain engine;
  let items = Feedback.analyze platform in
  Alcotest.(check bool) "whole-dictionary access flagged" true
    (List.exists
       (fun (i : Feedback.item) ->
         i.Feedback.severity = Feedback.Critical
         && i.Feedback.app = Some "test.kv"
         && i.Feedback.title = "whole-dictionary access")
       items)

let test_sharded_app_clean () =
  let engine, platform = make_platform ~apps:[ kv_app () ] () in
  for i = 0 to 7 do
    put platform ~from:(i mod 4) ~key:(Printf.sprintf "k%d" i) ~value:1
  done;
  drain engine;
  let items = Feedback.analyze platform in
  Alcotest.(check (list string)) "no centralization findings" []
    (List.filter_map
       (fun (i : Feedback.item) ->
         if
           i.Feedback.app = Some "test.kv"
           && List.mem i.Feedback.title [ "whole-dictionary access"; "effectively centralized" ]
         then Some i.Feedback.title
         else None)
       items)

let test_concentration_flagged () =
  (* All messages map to one key: the single bee handles 100%. *)
  let engine, platform = make_platform ~apps:[ kv_app () ] () in
  (* Two bees so the check applies; one gets all the traffic. *)
  put platform ~from:0 ~key:"cold" ~value:1;
  for _ = 1 to 200 do
    put platform ~from:1 ~key:"hot" ~value:1
  done;
  drain engine;
  let items = Feedback.analyze platform in
  Alcotest.(check bool) "effectively centralized flagged" true
    (List.exists
       (fun (i : Feedback.item) -> i.Feedback.title = "effectively centralized")
       items)

let test_analyze_ordering () =
  let engine, platform = make_platform ~apps:[ kv_app ~with_whole_dict_reader:true () ] () in
  for i = 0 to 5 do
    put platform ~from:(i mod 4) ~key:(Printf.sprintf "k%d" i) ~value:1
  done;
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:k_get_all Get_all;
  drain engine;
  let items = Feedback.analyze platform in
  let rank = function
    | Feedback.Critical -> 0
    | Feedback.Warning -> 1
    | Feedback.Info -> 2
  in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      rank a.Feedback.severity <= rank b.Feedback.severity && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "most severe first" true (sorted items)

let suite =
  [
    ( "feedback",
      [
        Alcotest.test_case "wildcard access flagged" `Quick test_wildcard_flagged;
        Alcotest.test_case "sharded app clean" `Quick test_sharded_app_clean;
        Alcotest.test_case "load concentration flagged" `Quick test_concentration_flagged;
        Alcotest.test_case "analyze ordering" `Quick test_analyze_ordering;
      ] );
  ]
