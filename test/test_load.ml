(* Workload-harness tests: the open-loop property itself (offered rate
   holds to schedule with and without completion backpressure), arrival
   pacing tolerance, fixed-seed determinism, and churn/storm behavior
   at a size small enough for the unit suite. The bench (`-- load`)
   exercises the full 2000-session scale; these tests pin semantics. *)

module Load = Aring_load.Load
module Stats = Aring_util.Stats
module Kv_scenario = Aring_app.Kv_scenario

let check = Alcotest.check
let ms n = n * 1_000_000

(* Small but real: 4 daemons, 120 sessions, short windows. *)
let small_spec =
  {
    Load.default_spec with
    label = "load-test";
    sessions_per_node = 30;
    n_groups = 8;
    ops_per_sec = 3_000.0;
    key_space = 64;
    warmup_ns = ms 40;
    measure_ns = ms 150;
    drain_ns = ms 800;
    seed = 11L;
  }

let expected_ops (spec : Load.spec) =
  spec.Load.ops_per_sec *. (float_of_int spec.Load.measure_ns /. 1e9)

let check_clean (r : Load.result) =
  check Alcotest.int "no oracle violations" 0 r.Load.oracle_violations;
  check Alcotest.bool "converged" true r.Load.converged

(* Poisson arrivals hold the offered rate to within sampling noise. *)
let test_offered_rate_poisson () =
  let r = Load.run small_spec in
  check_clean r;
  check Alcotest.int "all sessions up" 120 r.Load.sessions_peak;
  let expect = expected_ops small_spec in
  let ratio = float_of_int r.Load.ops_offered /. expect in
  if ratio < 0.9 || ratio > 1.1 then
    Alcotest.failf "offered %d ops vs expected %.0f (ratio %.3f)"
      r.Load.ops_offered expect ratio

(* Periodic pacing has no sampling noise, only a per-session window
   quantization: each session contributes floor-or-ceil of
   window/interval arrivals depending on its connect phase. The bound
   is therefore ±1 op per session, plus a small scheduling slack. *)
let test_offered_rate_periodic () =
  let r = Load.run { small_spec with arrival = Load.Periodic } in
  check_clean r;
  let expect = expected_ops small_spec in
  let sessions = 4 * small_spec.Load.sessions_per_node in
  let slack = float_of_int sessions +. (0.02 *. expect) in
  let err = Float.abs (float_of_int r.Load.ops_offered -. expect) in
  if err > slack then
    Alcotest.failf "periodic offered %d ops vs expected %.0f (err %.0f > %.0f)"
      r.Load.ops_offered expect err slack;
  if Stats.count r.Load.sync_read_latency_us = 0 then
    Alcotest.fail "no sync read was answered"

(* The defining open-loop property: arrivals never wait for
   completions. Split the cluster 2v2 for the whole measurement window
   — no side has a majority, so every write is rejected and nothing is
   applied — and the offered count must still hold to schedule while
   the in-flight queue grows without bound. A closed-loop generator
   would stall at its first unacknowledged write. *)
let test_backpressure_independence () =
  let horizon = small_spec.Load.warmup_ns + small_spec.Load.measure_ns in
  let r =
    Load.run
      {
        small_spec with
        label = "load-partitioned";
        partition =
          Some
            {
              Kv_scenario.part_at_ns = ms 10;
              heal_at_ns = horizon + ms 50;
              island = [ 2; 3 ];
            };
      }
  in
  (* Offered load is on schedule despite a cluster that applies nothing. *)
  let expect = expected_ops small_spec in
  let ratio = float_of_int r.Load.ops_offered /. expect in
  if ratio < 0.9 || ratio > 1.1 then
    Alcotest.failf "offered %d ops vs expected %.0f under stall (ratio %.3f)"
      r.Load.ops_offered expect ratio;
  (* Nothing applied in the window: no primary component anywhere. *)
  if r.Load.writes_applied * 10 > r.Load.writes_offered then
    Alcotest.failf "expected ~0 applied writes, got %d of %d offered"
      r.Load.writes_applied r.Load.writes_offered;
  (* The open-loop queue kept growing instead of throttling arrivals. *)
  if r.Load.queue_depth_peak < 50 then
    Alcotest.failf "open-loop queue did not grow under stall (peak %d)"
      r.Load.queue_depth_peak;
  if r.Load.queue_depth_peak < 5 * small_spec.Load.sessions_per_node / 2 then
    Alcotest.failf "queue peak %d too small for a stalled open loop"
      r.Load.queue_depth_peak;
  (* After the heal the cluster still merges and converges; the
     rejected writes stay unapplied (view-synchronous semantics), which
     is why the queue residue is reported rather than asserted empty. *)
  check_clean r

(* Same spec, same seed: byte-equal behavior. *)
let test_fixed_seed_determinism () =
  let spec =
    {
      small_spec with
      label = "load-det";
      churn =
        Some
          {
            Load.mean_lifetime_ns = ms 80;
            reconnect_delay_ns = ms 3;
            storm = None;
          };
      slow = Some { Load.slow_per_node = 1; drain_per_sec = 500.0 };
    }
  in
  let a = Load.run spec and b = Load.run spec in
  check Alcotest.int "ops_offered" a.Load.ops_offered b.Load.ops_offered;
  check Alcotest.int "ops_skipped" a.Load.ops_skipped b.Load.ops_skipped;
  check Alcotest.int "writes_applied" a.Load.writes_applied
    b.Load.writes_applied;
  check Alcotest.int "reconnects" a.Load.reconnects b.Load.reconnects;
  check Alcotest.int "latency samples"
    (Stats.count a.Load.write_latency_us)
    (Stats.count b.Load.write_latency_us);
  check Alcotest.int "queue peak" a.Load.queue_depth_peak
    b.Load.queue_depth_peak;
  check Alcotest.int "slow inbox peak" a.Load.slow_inbox_peak
    b.Load.slow_inbox_peak;
  check Alcotest.int "end_ns" a.Load.end_ns b.Load.end_ns

(* A reconnect storm drops exactly the requested sessions and brings
   them all back inside the window; applied throughput survives. *)
let test_reconnect_storm () =
  let r =
    Load.run
      {
        small_spec with
        label = "load-storm-test";
        measure_ns = ms 200;
        churn =
          Some
            {
              Load.mean_lifetime_ns = 0;
              reconnect_delay_ns = ms 5;
              storm =
                Some
                  {
                    Load.storm_at_ns = ms 120;
                    storm_sessions = 40;
                    storm_window_ns = ms 15;
                  };
            };
      }
  in
  check_clean r;
  check Alcotest.int "storm reconnects" 40 r.Load.reconnects;
  check Alcotest.bool "all back" true r.Load.storm_all_reconnected;
  if r.Load.storm_recovered_ms < 0.0 then
    Alcotest.failf "storm never recovered (%.1f ms)" r.Load.storm_recovered_ms;
  if r.Load.storm_degradation >= 1.0 then
    Alcotest.failf "storm killed throughput entirely (degradation %.2f)"
      r.Load.storm_degradation;
  (* Disconnected sessions skip arrivals instead of deferring them. *)
  if r.Load.ops_skipped = 0 then
    Alcotest.fail "expected skipped arrivals during the storm downtime"

(* Background churn keeps turning sessions over without losing
   correctness; some arrivals land in downtime windows. *)
let test_background_churn () =
  let r =
    Load.run
      {
        small_spec with
        label = "load-churn-test";
        churn =
          Some
            {
              Load.mean_lifetime_ns = ms 60;
              reconnect_delay_ns = ms 4;
              storm = None;
            };
      }
  in
  check_clean r;
  if r.Load.reconnects = 0 then
    Alcotest.fail "expected churn reconnects with a 60 ms mean lifetime";
  if r.Load.writes_applied = 0 then
    Alcotest.fail "churn starved the workload entirely"

(* The KV bench's shape (one periodic session per node, 128-byte values)
   across a partition: the island [3] is cut away and healed inside the
   window, and rejoins through a snapshot install. *)
let test_kv_preset_partition () =
  let r =
    Load.run
      {
        Load.default_spec with
        label = "kv-partition-test";
        sessions_per_node = 1;
        n_groups = 1;
        arrival = Load.Periodic;
        ops_per_sec = 3_000.0;
        key_space = 64;
        value_mix = [ (128, 1) ];
        warmup_ns = ms 20;
        measure_ns = ms 200;
        drain_ns = ms 1_500;
        seed = 6L;
        partition =
          Some
            { Kv_scenario.part_at_ns = ms 60; heal_at_ns = ms 140; island = [ 3 ] };
      }
  in
  check_clean r;
  if Aring_obs.Metrics.counter_value r.Load.metrics "app.installs" < 1 then
    Alcotest.fail "no state transfer after the heal";
  if Stats.count r.Load.sync_read_latency_us = 0 then
    Alcotest.fail "no sync read was answered"

(* A malformed partition window is rejected at every ring count, not
   silently dropped. *)
let bad_partitions =
  let p island part_at_ns heal_at_ns =
    Some { Kv_scenario.part_at_ns; heal_at_ns; island }
  in
  [
    ("empty partition island", p [] (ms 10) (ms 20));
    ("partition island node out of range", p [ 4 ] (ms 10) (ms 20));
    ("partition island node out of range", p [ -1 ] (ms 10) (ms 20));
    ("partition island holds every node", p [ 0; 1; 2; 3 ] (ms 10) (ms 20));
    ("partition heals before it starts", p [ 3 ] (ms 20) (ms 20));
    ("partition heals before it starts", p [ 3 ] (ms 20) (ms 10));
  ]

let test_invalid_specs () =
  Alcotest.check_raises "zero sessions"
    (Invalid_argument "Load.run: sessions_per_node < 1") (fun () ->
      ignore (Load.run { small_spec with sessions_per_node = 0 }));
  Alcotest.check_raises "empty value mix"
    (Invalid_argument "Load.run: empty value_mix") (fun () ->
      ignore (Load.run { small_spec with value_mix = [] }));
  (* Mload shares these checks: a zero-sum mix would otherwise reach
     [Prng.int prng 0] inside a Netsim callback. *)
  let two_rings = { small_spec with rings = 2; mcas_permille = 40 } in
  Alcotest.check_raises "2 rings: negative weight"
    (Invalid_argument "Mload.run: negative value_mix weight") (fun () ->
      ignore
        (Aring_multiring.Mload.run
           { two_rings with value_mix = [ (64, 2); (256, -1) ] }));
  Alcotest.check_raises "2 rings: zero-sum mix"
    (Invalid_argument "Mload.run: value_mix weights sum to zero") (fun () ->
      ignore (Aring_multiring.Mload.run { two_rings with value_mix = [ (64, 0) ] }));
  List.iter
    (fun (what, partition) ->
      Alcotest.check_raises ("1 ring: " ^ what)
        (Invalid_argument ("Load.run: " ^ what)) (fun () ->
          ignore (Load.run { small_spec with partition }));
      Alcotest.check_raises ("2 rings: " ^ what)
        (Invalid_argument ("Mload.run: " ^ what)) (fun () ->
          ignore (Aring_multiring.Mload.run { two_rings with partition })))
    bad_partitions

(* Outputs pinned across refactors of the shared driver: a 1-ring spec
   with churn and slow receivers, and a 2-ring spec with cross-shard
   mcas. Any change here means the generator's draw order, scheduling
   or completion accounting moved. *)
let pinned_1r =
  {
    Load.default_spec with
    label = "pin-1r";
    sessions_per_node = 20;
    n_groups = 8;
    ops_per_sec = 3_000.0;
    key_space = 64;
    warmup_ns = ms 40;
    measure_ns = ms 100;
    drain_ns = ms 800;
    seed = 5L;
    churn =
      Some { Load.mean_lifetime_ns = ms 50; reconnect_delay_ns = ms 4; storm = None };
    slow = Some { Load.slow_per_node = 1; drain_per_sec = 500.0 };
  }

let pinned_2r =
  {
    Load.default_spec with
    label = "pin-2r";
    rings = 2;
    sessions_per_node = 20;
    n_groups = 8;
    ops_per_sec = 2_000.0;
    key_space = 64;
    mcas_permille = 40;
    sync_read_permille = 0;
    warmup_ns = ms 60;
    measure_ns = ms 100;
    drain_ns = ms 1_500;
    seed = 9L;
  }

let test_pinned_outputs () =
  let pin label ~ops ~applied ~samples ~queue_end ~end_ns
      (ops', applied', samples', queue_end', end_ns') =
    check Alcotest.int (label ^ " ops_offered") ops ops';
    check Alcotest.int (label ^ " writes_applied") applied applied';
    check Alcotest.int (label ^ " latency samples") samples samples';
    check Alcotest.int (label ^ " queue_depth_end") queue_end queue_end';
    check Alcotest.int (label ^ " end_ns") end_ns end_ns'
  in
  let r = Load.run pinned_1r in
  pin "1 ring" ~ops:287 ~applied:205 ~samples:295 ~queue_end:0 ~end_ns:150_000_000
    ( r.Load.ops_offered,
      r.Load.writes_applied,
      Stats.count r.Load.write_latency_us,
      r.Load.queue_depth_end,
      r.Load.end_ns );
  let m = Aring_multiring.Mload.run pinned_2r in
  pin "2 rings" ~ops:198 ~applied:138 ~samples:138 ~queue_end:0 ~end_ns:175_000_000
    ( m.ops_offered,
      m.writes_applied,
      Stats.count m.write_latency_us,
      m.queue_depth_end,
      m.end_ns )

let suite =
  [
    Alcotest.test_case "offered rate holds (poisson)" `Quick
      test_offered_rate_poisson;
    Alcotest.test_case "offered rate holds (periodic)" `Quick
      test_offered_rate_periodic;
    Alcotest.test_case "arrivals independent of backpressure" `Quick
      test_backpressure_independence;
    Alcotest.test_case "fixed seed is deterministic" `Quick
      test_fixed_seed_determinism;
    Alcotest.test_case "reconnect storm drains and recovers" `Quick
      test_reconnect_storm;
    Alcotest.test_case "background churn keeps converging" `Quick
      test_background_churn;
    Alcotest.test_case "invalid specs rejected" `Quick test_invalid_specs;
    Alcotest.test_case "pinned outputs (1 and 2 rings)" `Quick
      test_pinned_outputs;
    Alcotest.test_case "kv preset heals a partition" `Quick
      test_kv_preset_partition;
  ]
