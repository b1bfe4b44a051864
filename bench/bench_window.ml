(* Accelerated-window sweep (`-- window [quick]`). Step workload on the
   1G Spread tier: the offered load jumps 100 -> 900 -> 100 Mbps mid-run.
   Every static accelerated window is swept on the same schedule, and the
   default window ([Params.default]'s, one of the sweep's points) is
   judged per phase against the best and the worst of them; per-phase
   latencies go to BENCH_window.json and bench/window_budget.json gates
   the ratios. *)

open Aring_ring
open Aring_wire
open Aring_sim
open Aring_harness
module Json = Aring_obs.Json
module Stats = Aring_util.Stats

let ms n = n * 1_000_000

let params aw =
  if aw = 0 then { Params.original with personal_window = 50; global_window = 400 }
  else
    { Params.default with
      personal_window = 50; global_window = 400; accelerated_window = aw }

let run ~quick =
  Printf.printf "=== Accelerated-window benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  let warmup = ms 100 in
  let phase_ns = if quick then ms 80 else ms 150 in
  let low = 100. and high = 900. in
  let default_aw = Params.default.accelerated_window in
  (* The default is judged from its own sweep point, so it is always one. *)
  let statics = List.sort_uniq compare [ 0; 5; 10; 20; 35; 50; default_aw ] in
  let spec_for ~aw =
    {
      Scenario.default_spec with
      label = Printf.sprintf "static/aw=%d" aw;
      net = Profile.gigabit;
      tier = Profile.spread;
      params = params aw;
      payload = 1350;
      service = Types.Agreed;
      offered_mbps = low;
      load =
        Scenario.step_load ~low ~high ~at_ns:(warmup + phase_ns)
          ~until_ns:(warmup + (2 * phase_ns));
      warmup_ns = warmup;
      measure_ns = 3 * phase_ns;
    }
  in
  (* A phase that fails to keep up with the offered load scores infinity:
     under open-loop overload the backlog (and so the latency) grows for
     as long as the phase lasts, so the mean alone already separates the
     configurations that sustain the load from those that collapse. *)
  let score (p : Scenario.phase) =
    if p.Scenario.p_delivered_mbps < 0.90 *. p.Scenario.p_offered_mbps then
      infinity
    else Stats.mean p.Scenario.p_latency_us
  in
  let print_run name (r : Scenario.result) =
    Printf.printf "  %-10s" name;
    List.iter
      (fun (p : Scenario.phase) ->
        Printf.printf " | %4.0f Mbps: del=%6.1f lat=%8.1f us"
          p.Scenario.p_offered_mbps p.Scenario.p_delivered_mbps
          (Stats.mean p.Scenario.p_latency_us))
      r.Scenario.phases;
    print_newline ()
  in
  Printf.printf
    "step workload: %.0f -> %.0f -> %.0f Mbps (%d ms per phase), Spread tier, 1G, Agreed\n%!"
    low high low (phase_ns / 1_000_000);
  let static_runs =
    List.map
      (fun aw ->
        let r = Scenario.run (spec_for ~aw) in
        print_run (Printf.sprintf "aw=%d" aw) r;
        (aw, r))
      statics
  in
  (* Per-phase comparison: the default window against the best and worst
     static window for that phase. *)
  let phase_stats =
    List.mapi
      (fun i (dp : Scenario.phase) ->
        let static_scores =
          List.map (fun (aw, r) -> (aw, score (List.nth r.Scenario.phases i)))
            static_runs
        in
        let best_aw, best =
          List.fold_left
            (fun (ba, bs) (aw, s) -> if s < bs then (aw, s) else (ba, bs))
            (-1, infinity) static_scores
        in
        let worst_aw, worst =
          List.fold_left
            (fun (wa, ws) (aw, s) -> if s > ws then (aw, s) else (wa, ws))
            (-1, neg_infinity) static_scores
        in
        let d = score dp in
        let ratio = if Float.is_finite best then d /. best else nan in
        (i, dp, d, (best_aw, best), (worst_aw, worst), ratio))
      (List.assoc default_aw static_runs).Scenario.phases
  in
  Printf.printf "\nper-phase summary (mean latency, us; inf = failed to sustain):\n";
  List.iter
    (fun (i, (p : Scenario.phase), d, (best_aw, best), (worst_aw, worst), ratio) ->
      Printf.printf
        "  phase %d (%4.0f Mbps): default aw=%d %8.1f | best static aw=%-2d \
         %8.1f (ratio %.2f) | worst static aw=%-2d %s\n%!"
        (i + 1) p.Scenario.p_offered_mbps default_aw d best_aw best ratio
        worst_aw
        (if Float.is_finite worst then Printf.sprintf "%8.1f" worst
         else "collapsed"))
    phase_stats;
  let json_score s = if Float.is_finite s then Json.Float s else Json.Null in
  let phase_json (i, (p : Scenario.phase), d, (best_aw, best), (worst_aw, worst), ratio) =
    Json.Obj
      [
        ("index", Json.Int i);
        ("offered_mbps", Json.Float p.Scenario.p_offered_mbps);
        ("default_lat_us", json_score d);
        ( "default_lat_p999_us",
          json_score (Stats.percentile p.Scenario.p_latency_us 99.9) );
        ("default_delivered_mbps", Json.Float p.Scenario.p_delivered_mbps);
        ("best_static_aw", Json.Int best_aw);
        ("best_static_lat_us", json_score best);
        ("worst_static_aw", Json.Int worst_aw);
        ("worst_static_lat_us", json_score worst);
        ("ratio_vs_best", json_score ratio);
      ]
  in
  let static_json (aw, (r : Scenario.result)) =
    Json.Obj
      [
        ("aw", Json.Int aw);
        ( "phases",
          Json.List
            (List.map
               (fun (p : Scenario.phase) ->
                 Json.Obj
                   [
                     ("offered_mbps", Json.Float p.Scenario.p_offered_mbps);
                     ("delivered_mbps", Json.Float p.Scenario.p_delivered_mbps);
                     ( "lat_mean_us",
                       json_score (Stats.mean p.Scenario.p_latency_us) );
                     ( "lat_p99_us",
                       json_score (Stats.percentile p.Scenario.p_latency_us 99.0)
                     );
                     ( "lat_p999_us",
                       json_score (Stats.percentile p.Scenario.p_latency_us 99.9)
                     );
                   ])
               r.Scenario.phases) );
      ]
  in
  {
    Gate.fields =
      [
        ( "workload",
          Json.Obj
            [
              ("net", Json.String "1g");
              ("tier", Json.String "spread");
              ("service", Json.String "agreed");
              ("payload_bytes", Json.Int 1350);
              ("low_mbps", Json.Float low);
              ("high_mbps", Json.Float high);
              ("phase_ms", Json.Int (phase_ns / 1_000_000));
            ] );
        ("default_aw", Json.Int default_aw);
        ("phases", Json.List (List.map phase_json phase_stats));
        ("statics", Json.List (List.map static_json static_runs));
      ];
    checks =
      List.map
        (fun (_, _, _, _, _, ratio) -> Gate.Max ("max_ratio_vs_best_static", ratio))
        phase_stats
      @ [
          Require
            ( "require_beats_worst_static",
              List.for_all
                (fun (_, _, d, _, (_, worst), _) -> d < worst)
                phase_stats );
        ];
    echo = [];
    conditions = [];
  }
