(* Aggregated alcotest entry point for the whole repository. *)

let () =
  Aring_util.Log.setup ();
  Alcotest.run "accelring"
    [
      ("util", Test_util.suite);
      ("wire", Test_wire.suite);
      ("vectors", Test_vectors.suite);
      ("params", Test_params.suite);
      ("engine", Test_engine.suite);
      ("sim", Test_sim.suite);
      ("obs", Test_obs.suite);
      ("member", Test_member.suite);
      ("daemon", Test_daemon.suite);
      ("payload", Test_payload.suite);
      ("baselines", Test_baselines.suite);
      ("udp", Test_udp.suite);
      ("fuzz", Test_fuzz.suite);
      ("app", Test_app.suite);
      ("load", Test_load.suite);
      ("multiring", Test_multiring.suite);
    ]
