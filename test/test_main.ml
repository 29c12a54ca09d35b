let () =
  Alcotest.run "snoise"
    (Test_numerics.suites
     @ Test_geometry.suites
     @ Test_layout.suites
     @ Test_substrate.suites
     @ Test_circuit.suites
     @ Test_analysis.suites
     @ Test_preflight.suites
     @ Test_engine.suites
     @ Test_stamp.suites
     @ Test_interconnect.suites
     @ Test_rf.suites
     @ Test_testchip.suites
     @ Test_oscillator.suites
     @ Test_pool.suites
     @ Test_reduce.suites
     @ Test_flow.suites
     @ Test_robustness.suites
     @ Test_server.suites
     @ Test_golden.suites)
