(* Replicated KV store benchmark (`-- kv [quick]`): steady-state op
   throughput and latency of the daemon-hosted KV replicas, the same
   workload across a partition + state transfer, and a state-transfer
   cost sweep vs store size. The workload is a Load preset: one periodic
   client session per node (the paper's methodology), Zipf 0.99 over 64
   keys. Every run carries the end-to-end consistency oracle: a
   violation or a failure to re-converge fails the suite whatever
   bench/kv_budget.json says. *)

module Json = Aring_obs.Json
module Stats = Aring_util.Stats
module Metrics = Aring_obs.Metrics
module Kv_scenario = Aring_app.Kv_scenario
module Load = Aring_load.Load

let ms n = n * 1_000_000

let value_bytes = 128

let preset =
  {
    Load.default_spec with
    label = "kv";
    n_nodes = 4;
    sessions_per_node = 1;
    n_groups = 1;
    arrival = Load.Periodic;
    ops_per_sec = 20_000.0;
    key_space = 64;
    zipf_theta = 0.99;
    value_mix = [ (value_bytes, 1) ];
    read_permille = 250;
    sync_read_permille = 50;
    cas_permille = 100;
    del_permille = 70;
    warmup_ns = ms 50;
    seed = 11L;
  }

let run ~quick =
  Printf.printf "=== Replicated KV store benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  let steady =
    Load.run
      {
        preset with
        label = "kv-steady";
        measure_ns = (if quick then ms 150 else ms 400);
      }
  in
  let partitioned =
    Load.run
      {
        preset with
        label = "kv-partition";
        measure_ns = (if quick then ms 200 else ms 400);
        partition =
          Some
            {
              Kv_scenario.part_at_ns = ms 60;
              heal_at_ns = ms (if quick then 140 else 220);
              island = [ preset.n_nodes - 1 ];
            };
      }
  in
  let correctness_ok (r : Load.result) =
    r.oracle_violations = 0 && r.converged
  in
  let pp_run r = Printf.printf "%s\n%!" (Format.asprintf "%a" Load.pp_result r) in
  pp_run steady;
  pp_run partitioned;
  (* State-transfer cost vs store size. *)
  let sweep_sizes =
    if quick then [ 100; 1_000; 5_000 ] else [ 100; 1_000; 5_000; 20_000 ]
  in
  let sweep =
    List.map
      (fun entries ->
        let t = Kv_scenario.measure_transfer ~store_entries:entries in
        Printf.printf
          "  transfer: %6d entries  %8d bytes  %9.0f us to re-sync\n%!"
          t.Kv_scenario.entries_transferred t.Kv_scenario.bytes_transferred
          t.Kv_scenario.xfer_us;
        (entries, t))
      sweep_sizes
  in
  let p50 s = Stats.median s
  and p99 s = Stats.percentile s 99.0
  and p999 s = Stats.percentile s 99.9 in
  (* Per-stage latency decomposition from the run's span histograms:
     where the write p50 goes between token ordering, delivery and
     replica apply. *)
  let stages_json (r : Load.result) =
    Json.List
      (List.map
         (fun (s : Aring_obs.Span.stage_report) ->
           Json.Obj
             [
               ("stage", Json.String s.Aring_obs.Span.stage);
               ("count", Json.Int s.Aring_obs.Span.count);
               ("p50_us", Json.Float s.Aring_obs.Span.p50_us);
               ("p99_us", Json.Float s.Aring_obs.Span.p99_us);
               ("p999_us", Json.Float s.Aring_obs.Span.p999_us);
             ])
         (Aring_obs.Span.report_of_metrics r.metrics))
  in
  let run_json label (r : Load.result) =
    ( label,
      Json.Obj
        [
          ("writes_submitted", Json.Int r.writes_offered);
          ("writes_applied", Json.Int r.writes_applied);
          ("write_ops_per_sec", Json.Float r.applied_write_rate);
          ("write_p50_us", Json.Float (p50 r.write_latency_us));
          ("write_p99_us", Json.Float (p99 r.write_latency_us));
          ("write_p999_us", Json.Float (p999 r.write_latency_us));
          ("sync_read_p50_us", Json.Float (p50 r.sync_read_latency_us));
          ("sync_read_p99_us", Json.Float (p99 r.sync_read_latency_us));
          ("sync_read_p999_us", Json.Float (p999 r.sync_read_latency_us));
          ("local_reads", Json.Int (Metrics.counter_value r.metrics "app.reads"));
          ("installs", Json.Int (Metrics.counter_value r.metrics "app.installs"));
          ("oracle_violations", Json.Int r.oracle_violations);
          ("converged", Json.Bool r.converged);
          ("latency_stages", stages_json r);
        ] )
  in
  (* Amortized transfer cost, judged at the largest sweep point (fixed
     per-transfer overhead dominates the small ones). *)
  let last_entries, last_t = List.nth sweep (List.length sweep - 1) in
  let xfer_per_entry =
    last_t.Kv_scenario.xfer_us /. float_of_int (max 1 last_entries)
  in
  {
    Gate.fields =
      [
        ( "workload",
          Json.Obj
            [
              ("nodes", Json.Int preset.n_nodes);
              ("net", Json.String "1g");
              ("ops_per_sec_offered", Json.Float preset.ops_per_sec);
              ("value_bytes", Json.Int value_bytes);
              ("key_space", Json.Int preset.key_space);
            ] );
        run_json "steady" steady;
        run_json "partitioned" partitioned;
        ( "transfer_sweep",
          Json.List
            (List.map
               (fun (entries, t) ->
                 Json.Obj
                   [
                     ("store_entries", Json.Int entries);
                     ( "entries_transferred",
                       Json.Int t.Kv_scenario.entries_transferred );
                     ( "bytes_transferred",
                       Json.Int t.Kv_scenario.bytes_transferred );
                     ("xfer_us", Json.Float t.Kv_scenario.xfer_us);
                     ("total_installs", Json.Int t.Kv_scenario.total_installs);
                   ])
               sweep) );
      ];
    checks =
      [
        Min ("min_steady_write_ops_per_sec", steady.applied_write_rate);
        Max ("max_steady_write_p50_us", p50 steady.write_latency_us);
        Max ("max_steady_sync_read_p50_us", p50 steady.sync_read_latency_us);
        Max ("max_transfer_us_per_entry", xfer_per_entry);
      ];
    echo = [ ("transfer_us_per_entry", Json.Float xfer_per_entry) ];
    conditions =
      [
        ( "both runs pass the consistency oracle and re-converge",
          correctness_ok steady && correctness_ok partitioned );
      ];
  }
