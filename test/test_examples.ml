(* The six examples, run as built: each must exit 0 and print exactly the
   stdout pinned in [behaviour.digests]. *)

let examples =
  [
    "distributed_routing";
    "elastic_scaling";
    "fault_tolerance";
    "quickstart";
    "traffic_engineering";
    "virtual_networks";
  ]

let stdout_digest name =
  let out = Filename.temp_file name ".out" in
  let exe = Filename.concat (Filename.concat Filename.parent_dir_name "examples") (name ^ ".exe") in
  let status = Sys.command (Printf.sprintf "%s > %s" (Filename.quote exe) (Filename.quote out)) in
  let digest = Digest.to_hex (Digest.file out) in
  Sys.remove out;
  Alcotest.(check int) (name ^ " exit status") 0 status;
  digest

let test_pinned_stdout () =
  Helpers.check_pinned ~section:"examples"
    (List.map (fun name -> (name, stdout_digest name)) examples)

let suite =
  [
    ( "examples",
      [ Alcotest.test_case "examples print their pinned output" `Quick test_pinned_stdout ] );
  ]
