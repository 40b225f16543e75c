(* Test entry point: one alcotest binary running every suite. *)

let () =
  Alcotest.run "repro"
    [ Test_util.tests;
      Test_vec.tests;
      Test_isa.tests;
      Test_memsim.tests;
      Test_cellbe.tests;
      Test_gpu.tests;
      Test_mta.tests;
      Test_mdcore.tests;
      Test_parallel.tests;
      Test_obs.tests;
      Test_prof.tests;
      Test_ports.tests;
      Test_calibration.tests;
      Test_fault.tests;
      Test_harness.tests;
      Test_ckpt.tests;
      Test_tel.tests;
      Test_io.tests;
      Test_serve.tests ]
