(* Chubby-style lock service: mutual exclusion, leases, sequencers. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module L = Beehive_locksvc.Lock_service

let setup ?lease () =
  let e = Engine.create () in
  (e, L.create e ?lease ())

let test_acquire_release () =
  let _, svc = setup () in
  let s1 = L.create_session svc ~owner:"a" in
  let s2 = L.create_session svc ~owner:"b" in
  (match L.try_acquire svc s1 ~path:"/x" with
  | `Acquired seq -> Alcotest.(check int) "first sequencer" 1 seq
  | `Held_by o -> Alcotest.failf "unexpected holder %s" o);
  (match L.try_acquire svc s2 ~path:"/x" with
  | `Held_by o -> Alcotest.(check string) "blocked by a" "a" o
  | `Acquired _ -> Alcotest.fail "mutual exclusion violated");
  L.release svc s1 ~path:"/x";
  (match L.try_acquire svc s2 ~path:"/x" with
  | `Acquired seq -> Alcotest.(check int) "sequencer advances" 2 seq
  | `Held_by _ -> Alcotest.fail "release did not free the lock");
  Alcotest.(check (option string)) "holder" (Some "b") (L.holder svc ~path:"/x")

let test_reacquire_same_session () =
  let _, svc = setup () in
  let s = L.create_session svc ~owner:"a" in
  let seq1 = match L.try_acquire svc s ~path:"/x" with `Acquired n -> n | _ -> -1 in
  let seq2 = match L.try_acquire svc s ~path:"/x" with `Acquired n -> n | _ -> -1 in
  Alcotest.(check int) "idempotent for owner" seq1 seq2

let test_lease_expiry () =
  let e, svc = setup ~lease:(Simtime.of_sec 2.0) () in
  let s1 = L.create_session svc ~owner:"a" in
  ignore (L.try_acquire svc s1 ~path:"/x");
  Engine.run_until e (Simtime.of_sec 1.0);
  Alcotest.(check bool) "alive inside lease" true (L.session_alive s1);
  Engine.run_until e (Simtime.of_sec 3.0);
  Alcotest.(check bool) "expired" false (L.session_alive s1);
  Alcotest.(check (option string)) "lock freed" None (L.holder svc ~path:"/x")

let test_keep_alive_extends () =
  let e, svc = setup ~lease:(Simtime.of_sec 2.0) () in
  let s = L.create_session svc ~owner:"a" in
  ignore (L.try_acquire svc s ~path:"/x");
  (* Renew every second: the session must survive well past the lease. *)
  let h = Engine.every e (Simtime.of_sec 1.0) (fun () -> if L.session_alive s then L.keep_alive s) in
  Engine.run_until e (Simtime.of_sec 10.0);
  Alcotest.(check bool) "still alive" true (L.session_alive s);
  Alcotest.(check (option string)) "still held" (Some "a") (L.holder svc ~path:"/x");
  ignore (Engine.cancel e h);
  Engine.run_until e (Simtime.of_sec 20.0);
  Alcotest.(check bool) "expires once renewals stop" false (L.session_alive s)

let test_release_unheld_raises () =
  let _, svc = setup () in
  let s1 = L.create_session svc ~owner:"a" in
  let s2 = L.create_session svc ~owner:"b" in
  ignore (L.try_acquire svc s1 ~path:"/x");
  Alcotest.check_raises "foreign release"
    (Invalid_argument "Lock_service.release: lock not held by session") (fun () ->
      L.release svc s2 ~path:"/x")

let prop_mutual_exclusion =
  QCheck.Test.make ~name:"at most one holder per path under random ops" ~count:100
    QCheck.(list (pair (int_bound 3) (int_bound 3)))
    (fun ops ->
      let _, svc = setup () in
      let sessions = Array.init 4 (fun i -> L.create_session svc ~owner:(string_of_int i)) in
      let holders = Hashtbl.create 8 in
      List.for_all
        (fun (path_i, sess_i) ->
          let path = "/p" ^ string_of_int path_i in
          let s = sessions.(sess_i) in
          match L.try_acquire svc s ~path with
          | `Acquired _ ->
            (* Either it was free, or we already held it. *)
            let prev = Hashtbl.find_opt holders path in
            Hashtbl.replace holders path sess_i;
            (match prev with None -> true | Some p -> p = sess_i)
          | `Held_by owner ->
            (* Must match our model and never be ourselves. *)
            Hashtbl.find_opt holders path = Some (int_of_string owner)
            && int_of_string owner <> sess_i)
        ops)

let test_sequencer_monotonic () =
  let _, svc = setup () in
  let s = L.create_session svc ~owner:"a" in
  let seqs = ref [] in
  for _ = 1 to 5 do
    (match L.try_acquire svc s ~path:"/x" with
    | `Acquired n -> seqs := n :: !seqs
    | `Held_by _ -> ());
    L.release svc s ~path:"/x"
  done;
  Alcotest.(check (list int)) "monotone" [ 5; 4; 3; 2; 1 ] !seqs

let suite =
  [
    ( "locksvc",
      [
        Alcotest.test_case "acquire/release" `Quick test_acquire_release;
        Alcotest.test_case "reacquire by owner" `Quick test_reacquire_same_session;
        Alcotest.test_case "lease expiry" `Quick test_lease_expiry;
        Alcotest.test_case "keep-alive extends lease" `Quick test_keep_alive_extends;
        Alcotest.test_case "foreign release rejected" `Quick test_release_unheld_raises;
        QCheck_alcotest.to_alcotest prop_mutual_exclusion;
        Alcotest.test_case "sequencers monotone" `Quick test_sequencer_monotonic;
      ] );
  ]
