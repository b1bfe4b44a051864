(* Multi-ring sharded ordering benchmark (`-- multiring [quick]`). The
   same saturating write-heavy open-loop workload against 1, 2 and 4
   rings sharing the physical cluster, keys sharded across rings and a
   deterministic learner merge reassembling one total order. The gates:
   aggregate merged throughput at 4 rings must scale >= the committed
   factor over single-ring, and the merge-added p99 (ring apply -> merged
   emergence) must stay within bench/multiring_budget.json. *)

module Json = Aring_obs.Json
module Stats = Aring_util.Stats
module Load = Aring_load.Load
module Mload = Aring_multiring.Mload

let ms n = n * 1_000_000

let run ~quick =
  Printf.printf "=== Multi-ring sharded ordering benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  (* Write-only mix at an offered rate past four rings' capacity
     (~490k writes/s per ring on this profile, with the daemons
     packing): open-loop, so every run saturates, and the rings that
     are added add real ordered throughput.
     Two deliberate choices isolate ring scaling:

     - Uniform keys, not Zipf. The round-robin merge emits at
       [rings x slowest-shard rate] — skips cover *idle* rings, not
       busy-but-slower ones — so shard skew caps aggregate throughput at
       the coldest shard's pace (with the default Zipf 0.99 mix the
       coldest of 4 shards draws ~20% of the load and scaling tops out
       near 0.8x). That skew ceiling is a property worth knowing, but it
       is the sharding function's story; the scaling gate uses uniform
       keys so it measures the rings.
     - No mcas in the sweep. A cross-shard cas parks its shard for a
       decide round-trip, which measures the mcas protocol, not ring
       scaling; a separate mcas run keeps that path hot and is gated on
       consistency. *)
  let spec rings =
    {
      Load.default_spec with
      label = Printf.sprintf "multiring-%dr" rings;
      rings;
      sessions_per_node = 100;
      ops_per_sec = 2_500_000.0;
      zipf_theta = 0.0;
      read_permille = 0;
      sync_read_permille = 0;
      cas_permille = 50;
      del_permille = 50;
      mcas_permille = 0;
      measure_ns = ms (if quick then 150 else 300);
      drain_ns = ms 2_000;
    }
  in
  let runs = List.map (fun r -> Mload.run (spec r)) [ 1; 2; 4 ] in
  let mcas_run =
    Mload.run
      {
        (spec 4) with
        label = "multiring-4r-mcas";
        ops_per_sec = 30_000.0;
        mcas_permille = 10;
      }
  in
  List.iter
    (fun r -> Printf.printf "%s\n%!" (Format.asprintf "%a" Load.pp_result r))
    (runs @ [ mcas_run ]);
  let find rings =
    List.find (fun r -> r.Load.spec.rings = rings) runs
  in
  let r1 = find 1 and r2 = find 2 and r4 = find 4 in
  let p99 s = Stats.percentile s 99.0 in
  let speedup (r : Load.result) =
    if r1.Load.applied_write_rate <= 0.0 then 0.0
    else r.Load.applied_write_rate /. r1.Load.applied_write_rate
  in
  let correctness_ok (r : Load.result) =
    r.Load.oracle_violations = 0 && r.Load.converged
  in
  let merge_p99_worst =
    Float.max (p99 r2.Load.merge_wait_us) (p99 r4.Load.merge_wait_us)
  in
  let run_json ?name (r : Load.result) =
    ( (match name with
      | Some n -> n
      | None -> Printf.sprintf "rings_%d" r.Load.spec.rings),
      Json.Obj
        [
          ("rings", Json.Int r.Load.spec.rings);
          ("ops_offered", Json.Int r.Load.ops_offered);
          ("writes_offered", Json.Int r.Load.writes_offered);
          ("writes_applied", Json.Int r.Load.writes_applied);
          ("offered_write_rate", Json.Float r.Load.offered_write_rate);
          ("applied_write_rate", Json.Float r.Load.applied_write_rate);
          ("speedup_vs_1r", Json.Float (speedup r));
          ("write_p50_us", Json.Float (Stats.median r.Load.write_latency_us));
          ("write_p99_us", Json.Float (p99 r.Load.write_latency_us));
          ("merge_wait_p50_us", Json.Float (Stats.median r.Load.merge_wait_us));
          ("merge_wait_p99_us", Json.Float (p99 r.Load.merge_wait_us));
          ( "per_ring_applied",
            Json.List
              (Array.to_list
                 (Array.map (fun n -> Json.Int n) r.Load.per_ring_applied)) );
          ("mcas_submitted", Json.Int r.Load.mcas_submitted);
          ("mcas_commits", Json.Int r.Load.mcas_commits);
          ("mcas_aborts", Json.Int r.Load.mcas_aborts);
          ("mcas_retries", Json.Int r.Load.mcas_retries);
          ("skip_credits_spent", Json.Int r.Load.skip_credits_spent);
          ("queue_depth_peak", Json.Int r.Load.queue_depth_peak);
          ("queue_depth_end", Json.Int r.Load.queue_depth_end);
          ("oracle_violations", Json.Int r.Load.oracle_violations);
          ("converged", Json.Bool r.Load.converged);
        ] )
  in
  {
    Gate.fields =
      ( "workload",
        Json.Obj
          [
            ("nodes_per_ring", Json.Int (spec 1).Load.n_nodes);
            ("sessions_per_node", Json.Int (spec 1).Load.sessions_per_node);
            ("ops_per_sec_offered", Json.Float (spec 1).Load.ops_per_sec);
            ("zipf_theta", Json.Float (spec 1).Load.zipf_theta);
            ("key_space", Json.Int (spec 1).Load.key_space);
            ("mcas_permille", Json.Int mcas_run.Load.spec.mcas_permille);
          ] )
      :: List.map (fun r -> run_json r) runs
      @ [ run_json ~name:"rings_4_mcas" mcas_run ];
    checks =
      [
        Min ("min_speedup_4r", speedup r4);
        Min ("min_speedup_2r", speedup r2);
        Max ("max_merge_wait_p99_us", merge_p99_worst);
      ];
    echo = [];
    conditions =
      [
        (* The unconditional floor: 4 rings deliver at least 3x
           single-ring aggregate applied throughput, budget file or not. *)
        ( "4 rings apply at least 3.0x the single-ring write rate",
          speedup r4 >= 3.0 );
        ( "every run passes the consistency oracle and converges",
          List.for_all correctness_ok (runs @ [ mcas_run ]) );
      ];
  }
