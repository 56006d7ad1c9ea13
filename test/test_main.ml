let () =
  Alcotest.run "tas"
    [
      ("engine", Test_engine.suite);
      ("proto", Test_proto.suite);
      ("buffers", Test_buffers.suite);
      ("netsim", Test_netsim.suite);
      ("cpu_cc", Test_cpu_cc.suite);
      ("tcp_engine", Test_tcp_engine.suite);
      ("tas", Test_tas.suite);
      ("apps", Test_apps.suite);
      ("tas_behavior", Test_tas_behavior.suite);
      ("faults", Test_faults.suite);
      ("stream_properties", Test_stream_properties.suite);
      ("harness", Test_harness.suite);
      ("pcap_edge", Test_pcap_edge.suite);
      ("framing", Test_framing.suite);
      ("rate_bucket", Test_rate_bucket.suite);
      ("multi_app", Test_multi_app.suite);
      ("cc_properties", Test_cc_properties.suite);
      ("stats_properties", Test_stats_properties.suite);
      ("telemetry", Test_telemetry.suite);
      ("timeline", Test_timeline.suite);
      ("wrap_edges", Test_wrap_edges.suite);
      ("determinism", Test_determinism.suite);
      ("parallel", Test_parallel.suite);
      ("shard", Test_shard.suite);
      ("arena", Test_arena.suite);
      ("control", Test_control.suite);
      ("recovery", Test_recovery.suite);
      ("footprint", Test_footprint.suite);
    ]
