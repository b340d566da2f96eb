(* Aggregated alcotest runner for all Beehive suites. *)

let () =
  Alcotest.run "beehive"
    (Test_sim.suite @ Test_net.suite @ Test_state.suite
   @ Test_cell_registry.suite @ Test_route_plan.suite @ Test_platform.suite @ Test_openflow.suite
   @ Test_instrumentation.suite @ Test_feedback.suite @ Test_apps_te.suite
   @ Test_apps.suite @ Test_routing.suite @ Test_policies.suite @ Test_raft.suite
   @ Test_raft_replication.suite @ Test_corybantic.suite @ Test_l2_fabrics.suite @ Test_chaos.suite @ Test_link_failure.suite @ Test_trace.suite @ Test_misc.suite @ Test_ensemble.suite
   @ Test_store.suite @ Test_harness.suite @ Test_check.suite @ Test_lin.suite
   @ Test_transport.suite @ Test_elastic.suite @ Test_outbox.suite
   @ Test_integrity.suite @ Test_examples.suite)
