open Aring_sim
module Kv = Aring_app.Kv
module Load = Aring_load.Load
module Stats = Aring_util.Stats
module Metrics = Aring_obs.Metrics

(* Multi-ring open-loop load: the {!Load} driver pointed at a sharded
   {!Cluster}. Sessions spread over every ring's daemons; KV ops route
   by key shard; a slice of the write mix becomes cross-shard multi-key
   cas. Write latency is submit -> emergence in node 0's *merged* stream
   — the client-visible total-order latency of a sharded deployment —
   and the merge-added wait (ring apply -> merged emergence) is surfaced
   separately, since that is the price of the learner merge itself. *)

type result = Load.result

let run (spec : Load.spec) =
  if spec.rings < 1 then invalid_arg "Mload.run: rings < 1";
  Load.validate ~prefix:"mload" spec;
  let n = spec.n_nodes and rings = spec.rings in
  let cluster =
    Cluster.create ~params:spec.params ~net:spec.net
      ~tiers:(Array.make n spec.tier) ~seed:spec.seed ~rings ~nodes:n ()
  in
  let sim = Cluster.sim cluster in
  let metrics = Metrics.create () in
  let m_merged = Metrics.counter metrics "mload.merged" in
  let horizon = spec.warmup_ns + spec.measure_ns in
  let in_window t = t >= spec.warmup_ns && t < horizon in
  let writes_applied = ref 0 in
  let merged_total = ref 0 in
  let per_ring_applied = Array.make rings 0 in
  let write_latency = Stats.create () in
  let merge_wait = Stats.create () in
  (* Latency closes at merged emergence in node 0's learner stream. *)
  let on_applied applied =
    Cluster.on_merged cluster (fun ~node ~ring ~index:_ ~op ~applied_at ->
        if node = 0 then begin
          let now = Netsim.now sim in
          if in_window now then begin
            incr merged_total;
            Metrics.incr m_merged;
            per_ring_applied.(ring) <- per_ring_applied.(ring) + 1;
            Stats.add_ns merge_wait (now - applied_at)
          end;
          match applied ~node op with
          | Some t0 when in_window t0 ->
              incr writes_applied;
              Stats.add_ns write_latency (now - t0)
          | Some _ | None -> ()
        end)
  in
  let all_mcas_decided () =
    List.for_all
      (fun id ->
        let ok = ref true in
        for node = 0 to n - 1 do
          if Cluster.alive cluster ~node then
            if not (Cluster.mcas_decided_at cluster ~node id) then ok := false
        done;
        !ok)
      (Cluster.mcas_ids cluster)
  in
  let sessions =
    Load.drive ~prefix:"mload" ~metrics spec
      {
        Load.sim;
        daemon = Cluster.daemon cluster;
        kv = Cluster.kv cluster;
        shard = Cluster.shard_of_key cluster;
        mcas =
          Some
            (fun ~node ~id ~writes -> Cluster.mcas cluster ~node ~id ~checks:[] ~writes);
        completes_at = (fun _ -> 0);
        on_applied;
        settled =
          (fun () ->
            Cluster.kv_converged cluster
            && Cluster.merge_settled cluster
            && all_mcas_decided ());
      }
  in
  Cluster.check_convergence cluster;
  Cluster.record_metrics cluster metrics;
  let node0_stats f =
    let total = ref 0 in
    for r = 0 to rings - 1 do
      total := !total + f (Kv.stats (Cluster.kv cluster ~ring:r ~node:0))
    done;
    !total
  in
  {
    (Load.result spec sessions ~writes_applied:!writes_applied
       ~applied:!merged_total ~write_latency_us:write_latency
       ~oracles:(Array.init rings (fun ring -> Cluster.oracle cluster ~ring))
       ~converged:(Cluster.kv_converged cluster && Cluster.merge_settled cluster)
       ~end_ns:(Netsim.now sim) ~metrics)
    with
    merge_wait_us = merge_wait;
    merged_total = !merged_total;
    per_ring_applied;
    mcas_submitted = Cluster.mcas_submitted cluster;
    mcas_commits = node0_stats (fun st -> st.Kv.mcas_commits);
    mcas_aborts = node0_stats (fun st -> st.Kv.mcas_aborts);
    mcas_retries = Cluster.mcas_retries cluster;
    skip_credits_spent = node0_stats (fun st -> st.Kv.skips);
  }
