(* The paper suite, and the default of bench/main.exe: regenerates every
   figure of the paper's evaluation (Section IV) plus the headline
   numbers, the related-work comparison (Section V) and the ablations.

   The output is organized per experiment; EXPERIMENTS.md records a
   paper-vs-measured summary of a full run. Absolute numbers come from a
   calibrated simulator (see DESIGN.md); the shapes — who wins, by what
   factor, where the knees and crossovers fall — are the reproduction
   target. *)

open Aring_wire
open Aring_ring
open Aring_sim
open Aring_harness
module Stats = Aring_util.Stats

let ms n = n * 1_000_000

(* Tuned flow-control windows, per network (paper methodology: smallest
   personal window reaching maximum throughput, accelerated window giving
   the best throughput at that personal window). *)
let params_for net protocol =
  let pw, gw, aw =
    if net.Profile.bandwidth_bps > 2_000_000_000 then (80, 600, 30)
    else (50, 400, 20)
  in
  match protocol with
  | `Original -> { Params.original with personal_window = pw; global_window = gw }
  | `Accelerated ->
      Params.accelerated ~personal_window:pw ~global_window:gw
        ~accelerated_window:aw ()

let protocol_name = function `Original -> "original" | `Accelerated -> "accelerated"

let spec ~quick ~net ~tier ~protocol ~service ~payload ~rate =
  {
    Scenario.default_spec with
    label =
      Printf.sprintf "%s/%s" tier.Profile.tier_name (protocol_name protocol);
    net;
    tier;
    params = params_for net protocol;
    payload;
    service;
    offered_mbps = rate;
    warmup_ns = (if net == Profile.gigabit then ms 100 else ms 60);
    measure_ns = (if quick then ms 120 else ms 250);
  }

let row r =
  let open Scenario in
  Printf.printf "  %-10s %-12s %-7s %8.0f %10.1f %10.1f %10.1f %10.1f\n%!"
    r.spec.tier.Profile.tier_name
    (Params.is_original r.spec.params |> fun o -> if o then "original" else "accelerated")
    (Types.service_to_string r.spec.service)
    r.spec.offered_mbps r.delivered_mbps (Stats.mean r.latency_us)
    (Stats.median r.latency_us)
    (Stats.percentile r.latency_us 99.0)

let header title expectation =
  Printf.printf "\n=== %s ===\n%s\n" title expectation;
  Printf.printf "  %-10s %-12s %-7s %8s %10s %10s %10s %10s\n" "tier" "protocol"
    "service" "offered" "delivered" "mean_us" "p50_us" "p99_us"

let thin ~quick l = if quick then List.filteri (fun i _ -> i mod 2 = 0) l else l

let sweep ~quick ~title ~expectation ~net ~service ~payload combos =
  header title expectation;
  List.iter
    (fun (tier, protocol, rates) ->
      List.iter
        (fun rate ->
          row (Scenario.run (spec ~quick ~net ~tier ~protocol ~service ~payload ~rate)))
        (thin ~quick rates);
      print_newline ())
    combos

(* Offered-load grids per tier (clean payload Mbps). *)
let rates_1g = [ 100.; 200.; 300.; 400.; 500.; 600.; 700.; 800.; 900. ]

let rates_10g tier =
  match tier.Profile.tier_name with
  | "library" -> [ 250.; 500.; 1000.; 1500.; 2000.; 2500.; 3000.; 3500.; 4000.; 4500. ]
  | "daemon" -> [ 250.; 500.; 1000.; 1500.; 2000.; 2500.; 3000.; 3200. ]
  | _ -> [ 250.; 500.; 750.; 1000.; 1250.; 1500.; 1750.; 2000.; 2150. ]

let rates_10g_jumbo tier =
  match tier.Profile.tier_name with
  | "library" -> [ 1000.; 2000.; 3000.; 4000.; 5000.; 6000.; 6800. ]
  | "daemon" -> [ 1000.; 2000.; 3000.; 4000.; 5000.; 6000.; 6300. ]
  | _ -> [ 1000.; 2000.; 3000.; 4000.; 5000.; 5500. ]

let both_protocols tier rates =
  [ (tier, `Original, rates); (tier, `Accelerated, rates) ]

let fig1 ~quick =
  sweep ~quick ~title:"Figure 1: Agreed delivery latency vs throughput, 1-gigabit"
    ~expectation:
      "Paper: original knee ~500-800 Mbps with latency climbing steeply;\n\
       accelerated sustains >900 Mbps with flat latency; Spread-original has\n\
       distinctly higher latency than the prototypes (delivery on the\n\
       critical path)."
    ~net:Profile.gigabit ~service:Types.Agreed ~payload:1350
    (List.concat_map (fun tier -> both_protocols tier rates_1g) Profile.all_tiers)

(* The paper's Section IV instruments, measured with the trace-driven
   rotation profiler at Figure 1 operating points: rotation time, messages
   per round and the post-token overlap fraction explain WHY acceleration
   moves the latency/throughput curve — the token no longer waits for the
   data it announces. *)
let rotation_profile ~quick =
  Printf.printf
    "\n=== Token-rotation profile at Figure 1 operating points (daemon, 1G) ===\n\
     Paper Section IV: acceleration shortens rotations (the token is not\n\
     delayed behind each burst) and moves most data sends after the token.\n";
  Printf.printf "  %-12s %8s | %9s %12s %12s %10s %10s %10s\n" "protocol"
    "offered" "rotations" "rot_mean_us" "rot_p99_us" "msgs/rnd" "aru/rnd"
    "post_tok";
  List.iter
    (fun protocol ->
      List.iter
        (fun rate ->
          let s =
            {
              (spec ~quick ~net:Profile.gigabit ~tier:Profile.daemon ~protocol
                 ~service:Types.Agreed ~payload:1350 ~rate)
              with
              profile_rotation = true;
            }
          in
          let r = Scenario.run s in
          match r.Scenario.rotation with
          | None -> ()
          | Some rot ->
              let open Aring_obs.Rotation in
              Printf.printf
                "  %-12s %8.0f | %9d %12.1f %12.1f %10.1f %10.1f %9.1f%%\n%!"
                (protocol_name protocol) rate rot.rotations
                (Stats.mean rot.rotation_us)
                (Stats.percentile rot.rotation_us 99.0)
                (Stats.mean rot.msgs_per_round)
                (Stats.mean rot.aru_per_round)
                (100.0 *. rot.post_token_fraction))
        (thin ~quick [ 300.; 600.; 800. ]);
      print_newline ())
    [ `Original; `Accelerated ]

let fig2 ~quick =
  sweep ~quick ~title:"Figure 2: Safe delivery latency vs throughput, 1-gigabit"
    ~expectation:
      "Paper: same pattern as Fig. 1 with higher latencies for the stronger\n\
       service; original supports ~600 Mbps before the sharp rise;\n\
       accelerated reaches >900 Mbps."
    ~net:Profile.gigabit ~service:Types.Safe ~payload:1350
    (List.concat_map (fun tier -> both_protocols tier rates_1g) Profile.all_tiers)

let fig3 ~quick =
  sweep ~quick ~title:"Figure 3: Agreed delivery latency vs throughput, 10-gigabit"
    ~expectation:
      "Paper: processing-bound; implementation overhead now separates the\n\
       tiers (library > daemon > Spread in max throughput); accelerated\n\
       improves both axes ~10-40% per tier."
    ~net:Profile.ten_gigabit ~service:Types.Agreed ~payload:1350
    (List.concat_map (fun tier -> both_protocols tier (rates_10g tier)) Profile.all_tiers)

let fig5 ~quick =
  sweep ~quick ~title:"Figure 5: Safe delivery latency vs throughput, 10-gigabit"
    ~expectation:
      "Paper: like Fig. 3 with higher latency for the stronger service and\n\
       slightly higher maximum throughputs (delivery off the critical path)."
    ~net:Profile.ten_gigabit ~service:Types.Safe ~payload:1350
    (List.concat_map (fun tier -> both_protocols tier (rates_10g tier)) Profile.all_tiers)

let fig46 ~quick service title expectation =
  header title expectation;
  List.iter
    (fun tier ->
      List.iter
        (fun (payload, rates) ->
          List.iter
            (fun rate ->
              row
                (Scenario.run
                   (spec ~quick ~net:Profile.ten_gigabit ~tier ~protocol:`Accelerated
                      ~service ~payload ~rate)))
            (thin ~quick rates);
          print_newline ())
        [ (1350, rates_10g tier); (8850, rates_10g_jumbo tier) ])
    Profile.all_tiers

let fig4 ~quick =
  fig46 ~quick Types.Agreed
    "Figure 4: Agreed delivery, 1350 B vs 8850 B payloads, 10-gigabit (accelerated)"
    "Paper: larger UDP datagrams amortize per-message processing; maxima\n\
     rise from 4.6/3.2/2.1 Gbps to 7.3/6/5.3 Gbps (library/daemon/Spread)."

let fig6 ~quick =
  fig46 ~quick Types.Safe
    "Figure 6: Safe delivery, 1350 B vs 8850 B payloads, 10-gigabit (accelerated)"
    "Paper: improvements similar to Fig. 4 for Safe delivery."

let fig7 ~quick =
  sweep ~quick ~title:"Figure 7: Safe delivery latency at low throughput, 10-gigabit (Spread)"
    ~expectation:
      "Paper: the crossover — at very low load the original protocol has\n\
       LOWER Safe latency (the accelerated aru can cost an extra round:\n\
       ~520 vs ~620 us at 100 Mbps); the accelerated protocol wins once\n\
       load reaches a few percent of capacity."
    ~net:Profile.ten_gigabit ~service:Types.Safe ~payload:1350
    (both_protocols Profile.spread [ 100.; 200.; 300.; 400.; 500.; 700.; 1000. ])

(* ------------------------------------------------------------------ *)
(* Headline maxima                                                     *)

let find_max ~quick ~net ~tier ~protocol ~payload ~hi =
  let s =
    {
      (spec ~quick ~net ~tier ~protocol ~service:Types.Agreed ~payload ~rate:100.)
      with
      warmup_ns = ms 50;
      measure_ns = ms 150;
    }
  in
  Scenario.find_max_throughput ~lo_mbps:100. ~hi_mbps:hi ~tolerance_mbps:50. s

let headline ~quick =
  Printf.printf "\n=== Headline: maximum sustained throughput (Agreed, Mbps) ===\n";
  Printf.printf
    "Paper: 1G/1350B Spread-accelerated >920 (saturation; original ~800 after\n\
     tuning, with very high latency). 10G/1350B maxima: library 4600,\n\
     daemon 3300, Spread 2300 (accelerated) vs Spread 1700 (original).\n\
     10G/8850B: library 7300, daemon 6000, Spread 5300.\n\n";
  Printf.printf "  %-8s %-10s %-12s %8s | %10s %12s\n" "net" "tier" "protocol"
    "payload" "max_mbps" "lat_mean_us";
  let combos =
    List.concat_map
      (fun tier ->
        [
          (Profile.gigabit, tier, `Original, 1350, 1200.);
          (Profile.gigabit, tier, `Accelerated, 1350, 1200.);
          (Profile.ten_gigabit, tier, `Original, 1350, 6000.);
          (Profile.ten_gigabit, tier, `Accelerated, 1350, 6000.);
          (Profile.ten_gigabit, tier, `Accelerated, 8850, 12000.);
        ])
      Profile.all_tiers
  in
  List.iter
    (fun (net, tier, protocol, payload, hi) ->
      let r = find_max ~quick ~net ~tier ~protocol ~payload ~hi in
      Printf.printf "  %-8s %-10s %-12s %8d | %10.0f %12.1f\n%!"
        net.Profile.net_name tier.Profile.tier_name (protocol_name protocol)
        payload r.Scenario.delivered_mbps
        (Stats.mean r.Scenario.latency_us))
    combos

(* ------------------------------------------------------------------ *)
(* Related work: fixed-sequencer baseline (Section V)                  *)

let related ~quick =
  header "Related work: fixed-sequencer total order (JGroups-style), 1-gigabit"
    "Paper measured JGroups total ordering at ~650 Mbps on the same 1G\n\
     cluster (1350 B). Our fixed-sequencer baseline shows the classic\n\
     profile: competitive raw throughput, latency concentrated at the\n\
     sequencer, and no Safe/EVS semantics (see DESIGN.md).";
  let tier = Profile.daemon in
  List.iter
    (fun rate ->
      let s =
        {
          (spec ~quick ~net:Profile.gigabit ~tier ~protocol:`Accelerated
             ~service:Types.Agreed ~payload:1350 ~rate)
          with
          label = "sequencer";
        }
      in
      let participants =
        Array.init s.Scenario.n_nodes (fun me ->
            Aring_baselines.Sequencer.participant
              (Aring_baselines.Sequencer.create ~me ~n:s.Scenario.n_nodes ()))
      in
      let r = Scenario.run_custom s ~participants in
      Printf.printf "  %-10s %-12s %-7s %8.0f %10.1f %10.1f %10.1f %10.1f\n%!"
        tier.Profile.tier_name "sequencer" "agreed" rate
        r.Scenario.delivered_mbps
        (Stats.mean r.Scenario.latency_us)
        (Stats.median r.Scenario.latency_us)
        (Stats.percentile r.Scenario.latency_us 99.0))
    (thin ~quick rates_1g)

let related_ring_paxos ~quick =
  header "Related work: Ring Paxos (simplified, Section V)"
    "Paper measured U-Ring Paxos at >750 Mbps on 1G (1350 B, batching) with\n\
     a latency profile similar to the original Ring protocol's Safe\n\
     delivery, and ~1.5 Gbps on 10G. Our simplified Ring Paxos (no\n\
     batching, fast path only) is measured on the same profiles. Note the\n\
     semantics gap the paper stresses: no Safe-equivalent cheap service,\n\
     no partitionable membership.";
  let run_paxos net tier rate =
    let s =
      {
        (spec ~quick ~net ~tier ~protocol:`Accelerated ~service:Types.Agreed
           ~payload:1350 ~rate)
        with
        label = "ring-paxos";
      }
    in
    let participants =
      Array.init s.Scenario.n_nodes (fun me ->
          Aring_baselines.Ring_paxos.participant
            (Aring_baselines.Ring_paxos.create ~me ~n:s.Scenario.n_nodes ()))
    in
    let r = Scenario.run_custom s ~participants in
    Printf.printf "  %-10s %-12s %-7s %8.0f %10.1f %10.1f %10.1f %10.1f\n%!"
      (tier.Profile.tier_name ^ "/" ^ net.Profile.net_name)
      "ring-paxos" "agreed" rate r.Scenario.delivered_mbps
      (Stats.mean r.Scenario.latency_us)
      (Stats.median r.Scenario.latency_us)
      (Stats.percentile r.Scenario.latency_us 99.0)
  in
  List.iter (run_paxos Profile.gigabit Profile.daemon) (thin ~quick [ 100.; 300.; 500.; 700.; 800. ]);
  print_newline ();
  List.iter (run_paxos Profile.ten_gigabit Profile.daemon)
    (thin ~quick [ 500.; 1000.; 1500.; 2000.; 2500. ])

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices behind the headline result            *)

let ablation_spec ~quick ~params ~rate ~net ~tier =
  {
    (spec ~quick ~net ~tier ~protocol:`Accelerated ~service:Types.Agreed ~payload:1350
       ~rate)
    with
    params;
  }

let ablation_accel_window ~quick =
  header "Ablation: accelerated window size (Spread tier, 1G)"
    "The single new knob of the paper. 0 = original protocol. At 800 Mbps\n\
     a small window already collapses latency (faster rotations mean small\n\
     per-round batches); at 950 Mbps only accelerated configurations\n\
     sustain the load at all. The paper tunes aw per deployment.";
  List.iter
    (fun aw ->
      let params =
        if aw = 0 then { Params.original with personal_window = 50; global_window = 400 }
        else
          Params.accelerated ~personal_window:50 ~global_window:400
            ~accelerated_window:aw ()
      in
      let r800 =
        Scenario.run
          (ablation_spec ~quick ~params ~rate:800. ~net:Profile.gigabit
             ~tier:Profile.spread)
      in
      let r950 =
        Scenario.run
          (ablation_spec ~quick ~params ~rate:950. ~net:Profile.gigabit
             ~tier:Profile.spread)
      in
      Printf.printf
        "  aw=%-3d @800: lat=%8.1f us rounds=%4d | @950: delivered=%7.1f Mbps lat=%9.1f us\n%!"
        aw
        (Stats.mean r800.Scenario.latency_us)
        r800.Scenario.token_rounds r950.Scenario.delivered_mbps
        (Stats.mean r950.Scenario.latency_us))
    [ 0; 5; 10; 20; 35; 50 ]

let ablation_priority_method ~quick =
  header "Ablation: token-priority switching method (daemon tier, 10G)"
    "Method 1 (aggressive) maximizes token speed; method 2 (conservative)\n\
     slows it slightly to bound data backlog — identical to the original\n\
     protocol when the accelerated window is 0 (paper Section III-C).";
  List.iter
    (fun (name, prio) ->
      List.iter
        (fun rate ->
          let params =
            Params.accelerated ~personal_window:80 ~global_window:600
              ~accelerated_window:30 ~priority_method:prio ()
          in
          let r =
            Scenario.run
              (ablation_spec ~quick ~params ~rate ~net:Profile.ten_gigabit
                 ~tier:Profile.daemon)
          in
          Printf.printf
            "  %-13s rate=%5.0f delivered=%7.1f Mbps  latency mean=%8.1f us p99=%8.1f us\n%!"
            name rate r.Scenario.delivered_mbps
            (Stats.mean r.Scenario.latency_us)
            (Stats.percentile r.Scenario.latency_us 99.0))
        [ 1000.; 2000.; 3000. ];
      print_newline ())
    [ ("aggressive", Params.Aggressive); ("conservative", Params.Conservative) ]

let ablation_personal_window ~quick =
  header "Ablation: personal window (Spread tier, 1G, accelerated, 700 Mbps)"
    "Paper methodology: pick the smallest personal window that still\n\
     reaches the target throughput. Tiny windows (2-3) starve the rotation\n\
     budget and collapse; beyond the sustaining point, growing the window\n\
     changes nothing at this load.";
  List.iter
    (fun pw ->
      let params =
        Params.accelerated ~personal_window:pw ~global_window:(8 * pw)
          ~accelerated_window:(min 20 pw) ()
      in
      let r =
        Scenario.run
          (ablation_spec ~quick ~params ~rate:700. ~net:Profile.gigabit
             ~tier:Profile.spread)
      in
      Printf.printf "  pw=%-4d delivered=%7.1f Mbps  latency mean=%8.1f us p99=%8.1f us\n%!"
        pw r.Scenario.delivered_mbps
        (Stats.mean r.Scenario.latency_us)
        (Stats.percentile r.Scenario.latency_us 99.0))
    [ 2; 3; 5; 15; 60; 200 ]

let ablation_loss_resilience ~quick =
  header "Ablation: random packet loss (daemon tier, 1G, 500 Mbps, accelerated)"
    "Flow control plus the rtr mechanism absorb loss: throughput holds\n\
     while retransmissions climb, at the cost of in-order delivery stalls\n\
     (a gap blocks delivery until the rtr round trip completes).\n\
     Delivered can transiently exceed offered as recovered backlog drains\n\
     into the measurement window.";
  List.iter
    (fun loss ->
      let s =
        {
          (spec ~quick ~net:(Profile.with_loss Profile.gigabit loss)
             ~tier:Profile.daemon ~protocol:`Accelerated ~service:Types.Agreed
             ~payload:1350 ~rate:500.)
          with
          label = Printf.sprintf "loss=%.3f" loss;
        }
      in
      let r = Scenario.run s in
      Printf.printf
        "  loss=%4.1f%% delivered=%7.1f Mbps  latency mean=%8.1f us p99=%9.1f us retrans=%d\n%!"
        (loss *. 100.) r.Scenario.delivered_mbps
        (Stats.mean r.Scenario.latency_us)
        (Stats.percentile r.Scenario.latency_us 99.0)
        r.Scenario.retransmissions)
    [ 0.0; 0.001; 0.005; 0.02 ]

let ablation_jumbo_frames ~quick =
  header "Extension: jumbo frames (paper future work), 8850 B payloads, 10G"
    "The paper deliberately avoids jumbo frames for applicability but\n\
     conjectures they would improve the large-datagram runs further: a\n\
     9000-byte MTU turns six kernel fragments into one.";
  List.iter
    (fun (name, net) ->
      List.iter
        (fun rate ->
          let r =
            Scenario.run
              (spec ~quick ~net ~tier:Profile.spread ~protocol:`Accelerated
                 ~service:Types.Agreed ~payload:8850 ~rate)
          in
          Printf.printf
            "  %-12s rate=%6.0f delivered=%8.1f Mbps  latency mean=%8.1f us p99=%8.1f us\n%!"
            name rate r.Scenario.delivered_mbps
            (Stats.mean r.Scenario.latency_us)
            (Stats.percentile r.Scenario.latency_us 99.0))
        (thin ~quick [ 2000.; 5500.; 7000.; 8500. ]);
      print_newline ())
    [
      ("mtu=1500", Profile.ten_gigabit);
      ("mtu=9000", Profile.with_jumbo_frames Profile.ten_gigabit);
    ]

(* Small-message packing: a daemon cluster where every client message is
   120 bytes — Spread's packing coalesces them into full protocol packets. *)
let ablation_packing ~quick =
  header "Extension: Spread-style message packing (120 B messages, 1G, daemon)"
    "Spread packs small messages into one protocol packet (Section\n\
     IV-A.3). Packed runs move far fewer protocol packets for the same\n\
     client-message rate, lifting the achievable small-message rate.";
  let open Aring_ring in
  let open Aring_daemon in
  let run_packing ~packing ~rate_kmsgs =
    let n = 8 in
    let ring = Array.init n (fun i -> i) in
    let members =
      Array.init n (fun me ->
          Member.create ~params:(params_for Profile.gigabit `Accelerated) ~me
            ~initial_ring:ring ())
    in
    let daemons =
      Array.map (fun m -> Daemon.create ~packing ~member:m ()) members
    in
    let sim =
      Netsim.create ~net:Profile.gigabit
        ~tiers:(Array.make n Profile.daemon)
        ~participants:(Array.map Daemon.participant daemons)
        ~seed:5L ()
    in
    let lat = Stats.create () in
    let delivered = ref 0 in
    let warmup = ms 100 and t_end = ms 300 in
    let sessions =
      Array.init n (fun i ->
          let cb =
            {
              Daemon.on_message =
                (fun ~sender:_ ~groups:_ _service payload ->
                  let now = Netsim.now sim in
                  if now >= warmup && now < t_end then begin
                    incr delivered;
                    let sent = Int64.to_int (Bytes.get_int64_be payload 0) in
                    Stats.add lat (float_of_int (now - sent) /. 1e3)
                  end);
              on_group_view = (fun ~group:_ ~members:_ -> ());
            }
          in
          let s = Daemon.connect daemons.(i) ~name:(Printf.sprintf "c%d" i) cb in
          Daemon.join daemons.(i) s "bench";
          s)
    in
    let interval_ns = 1_000_000_000 * n / (rate_kmsgs * 1000) / n in
    for node = 0 to n - 1 do
      let rec tick () =
        let now = Netsim.now sim in
        if now < t_end then begin
          let payload = Bytes.create 120 in
          Bytes.set_int64_be payload 0 (Int64.of_int now);
          Daemon.multicast daemons.(node) sessions.(node) ~groups:[ "bench" ]
            payload;
          Netsim.call_at sim ~at:(now + (interval_ns * n)) tick
        end
      in
      Netsim.call_at sim ~at:(ms 5 + (node * interval_ns)) tick
    done;
    Netsim.run_until sim t_end;
    let rate_meas =
      float_of_int !delivered /. float_of_int n
      /. (float_of_int (t_end - warmup) /. 1e9)
    in
    let packs =
      Array.fold_left (fun acc d -> acc + (Daemon.stats d).packs_sent) 0 daemons
    in
    Printf.printf
      "  packing=%-5b offered=%3dk msg/s delivered=%8.0f msg/s  latency mean=%8.1f us p99=%8.1f us packs=%d\n%!"
      packing rate_kmsgs rate_meas (Stats.mean lat)
      (Stats.percentile lat 99.0)
      packs
  in
  List.iter
    (fun rate_kmsgs ->
      run_packing ~packing:false ~rate_kmsgs;
      run_packing ~packing:true ~rate_kmsgs;
      print_newline ())
    (thin ~quick [ 50; 150; 250; 350 ])

let ablations ~quick =
  ablation_accel_window ~quick;
  ablation_priority_method ~quick;
  ablation_personal_window ~quick;
  ablation_loss_resilience ~quick;
  ablation_jumbo_frames ~quick;
  ablation_packing ~quick

let run ~quick =
  Printf.printf
    "Accelerated Ring reproduction benchmarks%s\n\
     8 nodes; calibrated simulator profiles (see DESIGN.md / EXPERIMENTS.md)\n"
    (if quick then " [QUICK MODE]" else "");
  fig1 ~quick;
  rotation_profile ~quick;
  fig2 ~quick;
  fig3 ~quick;
  fig4 ~quick;
  fig5 ~quick;
  fig6 ~quick;
  fig7 ~quick;
  headline ~quick;
  related ~quick;
  related_ring_paxos ~quick;
  ablations ~quick;
  Printf.printf "\nDone.\n"
