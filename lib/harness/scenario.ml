open Aring_wire
open Aring_ring
open Aring_sim
module Stats = Aring_util.Stats
module Metrics = Aring_obs.Metrics

type spec = {
  label : string;
  n_nodes : int;
  net : Profile.net;
  tier : Profile.tier;
  params : Params.t;
  payload : int;
  service : Types.service;
  offered_mbps : float;
  load : (int * float) list;
  warmup_ns : int;
  measure_ns : int;
  seed : int64;
}

type phase = {
  p_offered_mbps : float;
  p_delivered_mbps : float;
  p_latency_us : Stats.t;
  p_deliveries : int;
}

type result = {
  spec : spec;
  delivered_mbps : float;
  latency_us : Stats.t;
  deliveries : int;
  switch_drops : int;
  random_losses : int;
  retransmissions : int;
  token_rounds : int;
  phases : phase list;
  metrics : Metrics.t;
}

let default_spec =
  {
    label = "default";
    n_nodes = 8;
    net = Profile.gigabit;
    tier = Profile.daemon;
    params = Params.default;
    payload = 1350;
    service = Types.Agreed;
    offered_mbps = 200.0;
    load = [];
    warmup_ns = 100_000_000;
    measure_ns = 400_000_000;
    seed = 1L;
  }

let ring_id : Types.ring_id = { rep = 0; ring_seq = 1 }

(* ------------------------------------------------------------------ *)
(* Time-varying load profiles                                          *)

(* The load schedule is piecewise constant: [(t, mbps)] means "from
   simulated time t on, offer mbps (aggregate)". Before the first entry
   the rate is [offered_mbps]. Entries must be ascending in t. *)
let rate_at spec now =
  List.fold_left
    (fun rate (t, rate') -> if now >= t then rate' else rate)
    spec.offered_mbps spec.load

let step_load ~low ~high ~at_ns ~until_ns =
  [ (0, low); (at_ns, high); (until_ns, low) ]

(* Each sending client injects at a fixed rate; the aggregate offered load
   is split evenly. Node phases are staggered and each inter-submission
   interval carries ±25% jitter (mean preserved): a perfectly periodic
   deterministic workload can phase-lock with the token rotation, a
   resonance no real cluster exhibits. *)
let start_workload sim spec ~until =
  if spec.payload < 8 then invalid_arg "Scenario: payload must hold a timestamp";
  (* Inter-submission interval for one sending node at the rate in force
     at [now]; None while the schedule offers no load. *)
  let interval_at now =
    let per_node_msgs_per_sec =
      rate_at spec now *. 1e6
      /. float_of_int (spec.payload * 8)
      /. float_of_int spec.n_nodes
    in
    if per_node_msgs_per_sec > 0.0 then
      Some (int_of_float (1e9 /. per_node_msgs_per_sec))
    else None
  in
  let prng = Aring_util.Prng.create ~seed:(Int64.add spec.seed 0x5EEDL) in
  for node = 0 to spec.n_nodes - 1 do
    let rec tick () =
      let now = Netsim.now sim in
      if now < until then
        match interval_at now with
        | None ->
            (* Idle segment: poll for the next segment start. *)
            Netsim.call_at sim ~at:(now + 1_000_000) tick
        | Some interval_ns ->
            let payload = Bytes.create spec.payload in
            Bytes.set_int64_be payload 0 (Int64.of_int now);
            Netsim.submit_now sim ~node spec.service payload;
            let jitter =
              interval_ns / 4 |> fun j ->
              if j = 0 then 0 else Aring_util.Prng.int prng (2 * j) - j
            in
            Netsim.call_at sim ~at:(now + interval_ns + jitter) tick
    in
    let start =
      match interval_at 0 with
      | Some interval_ns -> interval_ns * node / spec.n_nodes
      | None -> 0
    in
    Netsim.call_at sim ~at:start tick
  done

let measure spec ~participants ~ring_stats =
  let sim =
    Netsim.create ~net:spec.net
      ~tiers:(Array.make spec.n_nodes spec.tier)
      ~participants ~seed:spec.seed ()
  in
  let t_end = spec.warmup_ns + spec.measure_ns in
  let latency_us = Stats.create () in
  let bytes_delivered = Array.make spec.n_nodes 0 in
  let deliveries = ref 0 in
  (* Phase boundaries: the measurement window cut at every load-schedule
     segment start falling inside it. A constant load is one phase. *)
  let bounds =
    let inner =
      List.filter_map
        (fun (t, _) -> if t > spec.warmup_ns && t < t_end then Some t else None)
        spec.load
      |> List.sort_uniq compare
    in
    Array.of_list ((spec.warmup_ns :: inner) @ [ t_end ])
  in
  let n_phases = Array.length bounds - 1 in
  let phase_lat = Array.init n_phases (fun _ -> Stats.create ()) in
  let phase_bytes = Array.make n_phases 0 in
  let phase_count = Array.make n_phases 0 in
  let phase_index now =
    let rec find i =
      if i >= n_phases - 1 || now < bounds.(i + 1) then i else find (i + 1)
    in
    find 0
  in
  Netsim.on_deliver sim (fun ~at ~now (d : Message.data) ->
      if now >= spec.warmup_ns && now < t_end then begin
        incr deliveries;
        bytes_delivered.(at) <- bytes_delivered.(at) + Bytes.length d.payload;
        let lat_ns = now - Int64.to_int (Bytes.get_int64_be d.payload 0) in
        Stats.add_ns latency_us lat_ns;
        let p = phase_index now in
        Stats.add_ns phase_lat.(p) lat_ns;
        phase_bytes.(p) <- phase_bytes.(p) + Bytes.length d.payload;
        phase_count.(p) <- phase_count.(p) + 1
      end);
  start_workload sim spec ~until:t_end;
  Netsim.run_until sim t_end;
  let metrics = Metrics.create () in
  Netsim.record_metrics sim metrics;
  let measure_s = float_of_int spec.measure_ns /. 1e9 in
  let per_node_mbps =
    Array.map
      (fun b -> float_of_int (b * 8) /. measure_s /. 1e6)
      bytes_delivered
  in
  let delivered_mbps =
    Array.fold_left ( +. ) 0.0 per_node_mbps
    /. float_of_int spec.n_nodes
  in
  let retransmissions, token_rounds = ring_stats () in
  let sim_stats = Netsim.stats sim in
  let phases =
    List.init n_phases (fun p ->
        let start = bounds.(p) and stop = bounds.(p + 1) in
        let dur_s = float_of_int (stop - start) /. 1e9 in
        {
          p_offered_mbps = rate_at spec start;
          p_delivered_mbps =
            float_of_int (phase_bytes.(p) * 8)
            /. dur_s /. 1e6
            /. float_of_int spec.n_nodes;
          p_latency_us = phase_lat.(p);
          p_deliveries = phase_count.(p);
        })
  in
  {
    spec;
    delivered_mbps;
    latency_us;
    deliveries = !deliveries;
    switch_drops = sim_stats.switch_drops;
    random_losses = sim_stats.random_losses;
    retransmissions;
    token_rounds;
    phases;
    metrics;
  }

let run spec =
  let ring = Array.init spec.n_nodes (fun i -> i) in
  let nodes =
    Array.init spec.n_nodes (fun me ->
        Node.create ~params:spec.params ~ring_id ~ring ~me)
  in
  let ring_stats () =
    ( Array.fold_left
        (fun acc node -> acc + (Engine.stats (Node.engine node)).retrans_sent)
        0 nodes,
      (Engine.stats (Node.engine nodes.(0))).rounds )
  in
  let r = measure spec ~participants:(Array.map Node.participant nodes) ~ring_stats in
  Array.iter (fun node -> Engine.record_metrics (Node.engine node) r.metrics) nodes;
  r

let run_custom spec ~participants =
  measure spec ~participants ~ring_stats:(fun () -> (0, 0))

(* A load level is "sustained" when nearly all of it is delivered inside
   the measurement window. *)
let sustained result =
  result.delivered_mbps >= 0.97 *. result.spec.offered_mbps

let find_max_throughput ?(lo_mbps = 50.0) ?(hi_mbps = 12_000.0)
    ?(tolerance_mbps = 25.0) spec =
  let run_at mbps = run { spec with offered_mbps = mbps } in
  let rec search lo hi best =
    if hi -. lo <= tolerance_mbps then best
    else begin
      let mid = (lo +. hi) /. 2.0 in
      let r = run_at mid in
      if sustained r then search mid hi r else search lo mid best
    end
  in
  let base = run_at lo_mbps in
  search lo_mbps hi_mbps base

let pp_result ppf r =
  Format.fprintf ppf
    "%-28s offered=%7.0f Mbps delivered=%7.1f Mbps lat(mean=%7.1f p50=%7.1f \
     p99=%8.1f us) n=%d rounds=%d retrans=%d drops=%d"
    r.spec.label r.spec.offered_mbps r.delivered_mbps
    (Stats.mean r.latency_us) (Stats.median r.latency_us)
    (Stats.percentile r.latency_us 99.0)
    r.deliveries r.token_rounds r.retransmissions r.switch_drops
