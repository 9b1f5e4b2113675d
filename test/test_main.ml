(* Test entry point: one alcotest section per subsystem. *)

let () =
  Alcotest.run "hyperenclave"
    [
      ("hw", Test_hw.suite);
      ("crypto", Test_crypto.suite);
      ("tpm", Test_tpm.suite);
      ("monitor", Test_monitor.suite);
      ("obs", Test_obs.suite);
      ("os", Test_os.suite);
      ("sdk", Test_sdk.suite);
      ("sched", Test_sched.suite);
      ("libos", Test_libos.suite);
      ("edl", Test_edl.suite);
      ("sgx", Test_sgx.suite);
      ("attestation", Test_attestation.suite);
      ("tee", Test_tee.suite);
      ("backend_api", Test_backend_api.suite);
      ("serve", Test_serve.suite);
      ("services", Test_services.suite);
      ("cluster", Test_cluster.suite);
      ("sealed", Test_sealed.suite);
      ("workloads", Test_workloads.suite);
      ("golden", Test_golden.suite);
      ("fuzz", Test_fuzz.suite);
      ("fault", Test_fault.suite);
      ("chaos", Test_chaos.suite);
      ("mc", Test_mc.suite);
      ("attacks", Test_attacks.suite);
      ("perf_gate", Test_perf_gate.suite);
    ]
