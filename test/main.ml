let () =
  Alcotest.run "regionsel"
    [
      (* The daemon suite forks server processes, and OCaml 5 forbids
         Unix.fork once any Domain has ever been spawned — so it must run
         before every domain-spawning suite (domain-pool, multi-stream,
         parity, obs). *)
      "daemon", Test_daemon.suite;
      "prng", Test_prng.suite;
      "isa", Test_isa.suite;
      "behavior", Test_behavior.suite;
      "builder", Test_builder.suite;
      "interp", Test_interp.suite;
      "history-buffer", Test_history_buffer.suite;
      "bitbuf", Test_bitbuf.suite;
      "compact-trace", Test_compact_trace.suite;
      "engine", Test_engine.suite;
      "policies", Test_policies.suite;
      "trace-cfg", Test_trace_cfg.suite;
      "simulator", Test_simulator.suite;
      "metrics", Test_metrics.suite;
      "observation-store", Test_observation_store.suite;
      "report", Test_report.suite;
      "workloads", Test_workloads.suite;
      "workload-structure", Test_workload_structure.suite;
      "transparency", Test_transparency.suite;
      "characterize", Test_characterize.suite;
      "reporting", Test_reporting.suite;
      "fuzz", Test_fuzz.suite;
      "formers", Test_formers.suite;
      "combined", Test_combined.suite;
      "icache", Test_icache.suite;
      "emitter", Test_emitter.suite;
      "extensions", Test_extensions.suite;
      "region", Test_region.suite;
      "code-cache", Test_code_cache.suite;
      "faults", Test_faults.suite;
      "domain-pool", Test_domain_pool.suite;
      "parity", Test_parity.suite;
      "stats", Test_stats.suite;
      "gauges-counters", Test_gauges_counters.suite;
      "telemetry", Test_telemetry.suite;
      "check", Test_check.suite;
      "persist", Test_persist.suite;
      "golden", Test_golden.suite;
      "wire", Test_wire.suite;
      "branch-stream", Test_branch_stream.suite;
      "multi-stream", Test_multi_stream.suite;
      "obs", Test_obs.suite;
    ]
