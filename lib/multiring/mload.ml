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

type result = {
  spec : Load.spec;
  ops_offered : int;
  writes_offered : int;
  writes_applied : int;
      (* tracked writes submitted inside the window that emerged merged
         at node 0 by the end of the drain *)
  offered_write_rate : float;
  applied_write_rate : float;
  write_latency_us : Stats.t;
  merge_wait_us : Stats.t;
  merged_total : int;
  per_ring_applied : int array;
  mcas_submitted : int;
  mcas_commits : int;
  mcas_aborts : int;
  mcas_retries : int;
  skip_credits_spent : int;
  queue_depth_peak : int;
  queue_depth_end : int;
  oracle_violations : int;
  converged : bool;
  end_ns : int;
  metrics : Metrics.t;
  sessions : Load.sessions;
}

let run (spec : Load.spec) =
  if spec.rings < 1 then invalid_arg "Mload.run: rings < 1";
  Load.validate ~prefix:"mload" spec;
  let n = spec.n_nodes and rings = spec.rings in
  let cluster =
    Cluster.create ~params:spec.params ~net:spec.net ~tier:spec.tier
      ~seed:spec.seed ~rings ~nodes:n ()
  in
  let sim = Cluster.sim cluster in
  let metrics = Metrics.create () in
  let m_merged = Metrics.counter metrics "mload.merged" in
  let m_latency =
    Metrics.histogram
      ~bounds:(Metrics.exponential_bounds ~lo:100.0 ~factor:2.0 ~count:16)
      metrics "mload.write_latency_us"
  in
  let horizon = spec.warmup_ns + spec.measure_ns in
  let in_window t = t >= spec.warmup_ns && t < horizon in
  let writes_applied = ref 0 in
  let merged_total = ref 0 in
  let per_ring_applied = Array.make rings 0 in
  let write_latency = Stats.create () in
  let merge_wait = Stats.create () in
  (* Latency closes at merged emergence in node 0's learner stream. *)
  let on_applied applied =
    Cluster.on_merged cluster (fun ~node ~ring (it : Cluster.merged_item) ->
        if node = 0 then begin
          let now = Netsim.now sim in
          if in_window now then begin
            incr merged_total;
            Metrics.incr m_merged;
            per_ring_applied.(ring) <- per_ring_applied.(ring) + 1;
            Stats.add merge_wait (float_of_int (now - it.mi_applied_at) /. 1e3)
          end;
          match applied ~node it.mi_op with
          | Some t0 when in_window t0 ->
              incr writes_applied;
              let us = float_of_int (now - t0) /. 1e3 in
              Stats.add write_latency us;
              Metrics.observe m_latency us
          | Some _ | None -> ()
        end)
  in
  let all_mcas_decided () =
    List.for_all
      (fun (id, _, _) ->
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
  let measure_s = float_of_int spec.measure_ns /. 1e9 in
  {
    spec;
    ops_offered = sessions.ops_offered;
    writes_offered = sessions.writes_offered;
    writes_applied = !writes_applied;
    offered_write_rate = float_of_int sessions.writes_offered /. measure_s;
    applied_write_rate = float_of_int !merged_total /. measure_s;
    write_latency_us = write_latency;
    merge_wait_us = merge_wait;
    merged_total = !merged_total;
    per_ring_applied;
    mcas_submitted = Cluster.mcas_submitted cluster;
    mcas_commits = node0_stats (fun st -> st.Kv.mcas_commits);
    mcas_aborts = node0_stats (fun st -> st.Kv.mcas_aborts);
    mcas_retries = Cluster.mcas_retries cluster;
    skip_credits_spent = node0_stats (fun st -> st.Kv.skips);
    queue_depth_peak = sessions.queue_depth_peak;
    queue_depth_end = sessions.queue_depth_end;
    oracle_violations = Cluster.oracle_violations cluster;
    converged = Cluster.kv_converged cluster && Cluster.merge_settled cluster;
    end_ns = Netsim.now sim;
    metrics;
    sessions;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s: rings=%d offered=%d merged=%d applied_rate=%.0f/s@,\
     write p50=%.0fus p99=%.0fus  merge-wait p50=%.0fus p99=%.0fus@,\
     per-ring=%s mcas=%d (commit %d abort %d retry %d) queue peak=%d end=%d@,\
     sessions peak=%d reconnects=%d skipped=%d sync reads=%d storm all \
     back=%b@,\
     oracle=%d converged=%b@]" r.spec.Load.label r.spec.Load.rings
    r.ops_offered r.merged_total r.applied_write_rate
    (Stats.percentile r.write_latency_us 50.0)
    (Stats.percentile r.write_latency_us 99.0)
    (Stats.percentile r.merge_wait_us 50.0)
    (Stats.percentile r.merge_wait_us 99.0)
    (String.concat ","
       (Array.to_list (Array.map string_of_int r.per_ring_applied)))
    r.mcas_submitted r.mcas_commits r.mcas_aborts r.mcas_retries
    r.queue_depth_peak r.queue_depth_end r.sessions.sessions_peak
    r.sessions.reconnects r.sessions.ops_skipped
    (Stats.count r.sessions.sync_read_latency_us)
    r.sessions.storm_all_reconnected r.oracle_violations r.converged
