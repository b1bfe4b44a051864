(* Production workload benchmark (`-- load [quick]`): open-loop sessions
   at scale. 2000 concurrent daemon sessions offer a Zipf-skewed KV mix
   at a fixed aggregate rate, decoupled from completions. A steady run
   (with slow receivers riding along) gates p99/p99.9 write latency, the
   applied/offered ratio and the slow receivers' parked backlog, which
   the daemon's inbox limit bounds; a reconnect-storm run gates
   applied-rate degradation and post-storm recovery. Gated by
   bench/load_budget.json. *)

module Json = Aring_obs.Json
module Stats = Aring_util.Stats
module Load = Aring_load.Load

let ms n = n * 1_000_000

let run ~quick =
  Printf.printf "=== Production workload benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  let steady =
    Load.run
      {
        Load.default_spec with
        label = "load-steady";
        measure_ns = ms (if quick then 150 else 300);
        slow = Some { Load.slow_per_node = 2; drain_per_sec = 2_000.0 };
      }
  in
  let storm_at = if quick then 180 else 200 in
  let storm =
    Load.run
      {
        Load.default_spec with
        label = "load-storm";
        measure_ns = ms (if quick then 200 else 300);
        churn =
          Some
            {
              Load.mean_lifetime_ns = 0;
              reconnect_delay_ns = ms 5;
              storm =
                Some
                  {
                    Load.storm_at_ns = ms storm_at;
                    storm_sessions = 400;
                    storm_window_ns = ms 20;
                  };
            };
      }
  in
  let pp_run r = Printf.printf "%s\n%!" (Format.asprintf "%a" Load.pp_result r) in
  pp_run steady;
  pp_run storm;
  let correctness_ok (r : Load.result) =
    r.Load.oracle_violations = 0 && r.Load.converged
  in
  let p99 s = Stats.percentile s 99.0 in
  let applied_ratio (r : Load.result) =
    if r.Load.writes_offered = 0 then 0.0
    else float_of_int r.Load.writes_applied /. float_of_int r.Load.writes_offered
  in
  let run_json label (r : Load.result) =
    ( label,
      Json.Obj
        [
          ("sessions_started", Json.Int r.Load.sessions_started);
          ("sessions_peak", Json.Int r.Load.sessions_peak);
          ("reconnects", Json.Int r.Load.reconnects);
          ("ops_offered", Json.Int r.Load.ops_offered);
          ("ops_skipped", Json.Int r.Load.ops_skipped);
          ("writes_offered", Json.Int r.Load.writes_offered);
          ("writes_applied", Json.Int r.Load.writes_applied);
          ("offered_write_rate", Json.Float r.Load.offered_write_rate);
          ("applied_write_rate", Json.Float r.Load.applied_write_rate);
          ("applied_offered_ratio", Json.Float (applied_ratio r));
          ("write_p50_us", Json.Float (Stats.median r.Load.write_latency_us));
          ("write_p99_us", Json.Float (p99 r.Load.write_latency_us));
          ("write_p999_us", Json.Float (Stats.p999 r.Load.write_latency_us));
          ("sync_read_p99_us", Json.Float (p99 r.Load.sync_read_latency_us));
          ("queue_depth_peak", Json.Int r.Load.queue_depth_peak);
          ("queue_depth_end", Json.Int r.Load.queue_depth_end);
          ("slow_inbox_peak", Json.Int r.Load.slow_inbox_peak);
          ("slow_cuts", Json.Int r.Load.slow_cuts);
          ("storm_steady_rate", Json.Float r.Load.storm_steady_rate);
          ("storm_rate", Json.Float r.Load.storm_rate);
          ("storm_degradation", Json.Float r.Load.storm_degradation);
          ("storm_recovered_ms", Json.Float r.Load.storm_recovered_ms);
          ("storm_all_reconnected", Json.Bool r.Load.storm_all_reconnected);
          ("oracle_violations", Json.Int r.Load.oracle_violations);
          ("converged", Json.Bool r.Load.converged);
        ] )
  in
  {
    Gate.fields =
      [
        ( "workload",
          Json.Obj
            [
              ("nodes", Json.Int Load.default_spec.Load.n_nodes);
              ( "sessions",
                Json.Int
                  (Load.default_spec.Load.n_nodes
                  * Load.default_spec.Load.sessions_per_node) );
              ("groups", Json.Int Load.default_spec.Load.n_groups);
              ("ops_per_sec_offered", Json.Float Load.default_spec.Load.ops_per_sec);
              ("zipf_theta", Json.Float Load.default_spec.Load.zipf_theta);
              ("key_space", Json.Int Load.default_spec.Load.key_space);
              ("storm_sessions", Json.Int 400);
            ] );
        run_json "steady" steady;
        run_json "storm" storm;
      ];
    checks =
      [
        Min ("min_concurrent_sessions", float_of_int steady.Load.sessions_peak);
        Min ("min_concurrent_sessions", float_of_int storm.Load.sessions_peak);
        Max ("max_steady_write_p99_us", p99 steady.Load.write_latency_us);
        Max ("max_steady_write_p999_us", Stats.p999 steady.Load.write_latency_us);
        Max ("max_steady_slow_inbox_peak", float_of_int steady.Load.slow_inbox_peak);
        Min ("min_applied_offered_ratio", applied_ratio steady);
        Max ("max_storm_degradation", storm.Load.storm_degradation);
        Max ("max_storm_recovery_ms", storm.Load.storm_recovered_ms);
      ];
    echo = [];
    conditions =
      [
        ( "the steady run sustains at least 2000 concurrent sessions",
          steady.Load.sessions_peak >= 2000 );
        ( "the storm run recovers and every session reconnects",
          storm.Load.storm_recovered_ms >= 0.0
          && storm.Load.storm_all_reconnected );
        ( "both runs pass the consistency oracle and converge",
          correctness_ok steady && correctness_ok storm );
      ];
  }
