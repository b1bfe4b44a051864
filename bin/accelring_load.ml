(* CLI: production workload harness — open-loop client sessions at
   scale against the replicated KV stack on the simulated cluster.
   Prints offered vs applied rate, p99/p99.9 write latency, open-loop
   queue depth and (when enabled) reconnect-storm degradation and
   recovery. The consistency oracle rides every run; a violation (or a
   cluster that fails to re-converge) is a hard error, exit 1. With one
   periodic session per node it is the paper's KV workload, and
   --partition drives freeze, re-merge and state transfer under it. *)

open Aring_sim
module Load = Aring_load.Load

let net_of_string = function
  | "1g" -> Ok Profile.gigabit
  | "10g" -> Ok Profile.ten_gigabit
  | s -> Error (`Msg (Printf.sprintf "unknown network %S (use 1g|10g)" s))

let run nodes rings mcas net sessions groups rate periodic seconds keys theta
    reads sync_reads cas dels churn_ms storm_spec slow_spec wan_ns
    partition_spec seed verbose trace_file chrome_file show_metrics =
  if verbose then Aring_util.Log.setup ~level:Logs.Info ();
  if rings < 1 then begin
    prerr_endline "--rings must be >= 1";
    exit 2
  end;
  let storm =
    Option.map
      (fun (at_ms, count) ->
        {
          Load.storm_at_ns = at_ms * 1_000_000;
          storm_sessions = count;
          storm_window_ns = 20_000_000;
        })
      storm_spec
  in
  let churn =
    if churn_ms <= 0 && storm = None then None
    else
      Some
        {
          Load.mean_lifetime_ns = churn_ms * 1_000_000;
          reconnect_delay_ns = 5_000_000;
          storm;
        }
  in
  let slow =
    Option.map
      (fun (per_node, per_sec) ->
        { Load.slow_per_node = per_node; drain_per_sec = float_of_int per_sec })
      slow_spec
  in
  let geo =
    if wan_ns <= 0 || nodes < 2 then None
    else
      (* Split the cluster in half across a WAN hop. *)
      Some
        {
          Load.classes = Array.init nodes (fun i -> if i < nodes / 2 then 0 else 1);
          latency_matrix = [| [| 0; wan_ns |]; [| wan_ns; 0 |] |];
        }
  in
  let partition =
    Option.map
      (fun (at_ms, heal_ms) ->
        {
          Aring_app.Kv_scenario.part_at_ns = at_ms * 1_000_000;
          heal_at_ns = heal_ms * 1_000_000;
          island = [ nodes - 1 ];
        })
      partition_spec
  in
  let spec =
    {
      Load.default_spec with
      label =
        (if rings > 1 then
           Printf.sprintf "load/%dr/%dn/%ds" rings nodes (nodes * sessions)
         else Printf.sprintf "load/%dn/%ds" nodes (nodes * sessions));
      n_nodes = nodes;
      rings;
      mcas_permille = (if rings > 1 then mcas else 0);
      net;
      sessions_per_node = sessions;
      n_groups = groups;
      arrival = (if periodic then Load.Periodic else Load.Poisson);
      ops_per_sec = rate;
      key_space = keys;
      zipf_theta = theta;
      read_permille = reads;
      sync_read_permille = sync_reads;
      cas_permille = cas;
      del_permille = dels;
      churn;
      slow;
      geo;
      partition;
      measure_ns = int_of_float (seconds *. 1e9);
      seed = Int64.of_int seed;
    }
  in
  (* Reject a malformed spec (e.g. a partition that heals before it
     starts) as a usage error, before any sink is opened. *)
  (try Load.validate ~prefix:(if rings > 1 then "mload" else "load") spec
   with Invalid_argument msg ->
     prerr_endline msg;
     exit 2);
  let trace = Trace_sinks.install ~trace_file ~chrome_file () in
  if rings > 1 then begin
    let module Mload = Aring_multiring.Mload in
    let result = Mload.run spec in
    Trace_sinks.finish trace;
    Format.printf "%a@." Mload.pp_result result;
    if show_metrics then
      Format.printf "%a@." Aring_obs.Metrics.pp result.Mload.metrics;
    if result.Mload.oracle_violations > 0 then begin
      print_endline "CONSISTENCY VIOLATIONS (see per-ring oracles)";
      exit 1
    end;
    if not result.Mload.converged then begin
      print_endline "replicas did not converge within the drain budget";
      exit 1
    end
  end
  else begin
    let result = Load.run spec in
    Trace_sinks.finish trace;
    Format.printf "%a@." Load.pp_result result;
    if show_metrics then
      Format.printf "%a@." Aring_obs.Metrics.pp result.Load.metrics;
    if result.Load.oracle_violations > 0 then begin
      Format.printf "CONSISTENCY VIOLATIONS:@.%a@." Aring_app.Oracle.pp
        result.Load.oracle;
      exit 1
    end;
    if not result.Load.converged then begin
      print_endline "replicas did not converge within the drain budget";
      exit 1
    end
  end

open Cmdliner

let nodes =
  Arg.(value & opt int 4 & info [ "n"; "nodes" ] ~doc:"Cluster size.")

let rings_arg =
  Arg.(
    value & opt int 1
    & info [ "rings" ]
        ~doc:
          "Independent ordering rings the KV key space shards over \
           (1 = classic single-ring). Every node participates in every \
           ring; latency is measured at the merged learner stream.")

let mcas_arg =
  Arg.(
    value & opt int 20
    & info [ "mcas" ]
        ~doc:
          "Cross-shard multi-key cas share of the write mix, permille \
           (multi-ring runs only).")

let net =
  Arg.(
    value
    & opt (conv (net_of_string, fun fmt n -> Format.fprintf fmt "%s" n.Profile.net_name)) Profile.gigabit
    & info [ "net" ] ~doc:"Network profile: 1g or 10g.")

let sessions =
  Arg.(
    value & opt int 500
    & info [ "sessions" ] ~doc:"Client sessions per daemon.")

let groups =
  Arg.(
    value & opt int 16
    & info [ "groups" ] ~doc:"Process groups the sessions spread over.")

let rate =
  Arg.(
    value & opt float 12_000.
    & info [ "rate" ] ~doc:"Aggregate offered op rate (ops/sec), open loop.")

let periodic =
  Arg.(
    value & flag
    & info [ "periodic" ]
        ~doc:"Deterministic per-session pacing instead of Poisson arrivals.")

let seconds =
  Arg.(
    value & opt float 0.3
    & info [ "seconds" ] ~doc:"Measurement window (simulated seconds).")

let keys =
  Arg.(value & opt int 512 & info [ "keys" ] ~doc:"Key-space size.")

let theta =
  Arg.(
    value & opt float 0.99
    & info [ "theta" ] ~doc:"Zipf skew of the key popularity (0 = uniform).")

let reads =
  Arg.(
    value & opt int 250
    & info [ "reads" ] ~doc:"Local-read share of the mix, permille.")

let sync_reads =
  Arg.(
    value & opt int 50
    & info [ "sync-reads" ]
        ~doc:"Sync-read (Safe-ordered) share of the mix, permille.")

let cas =
  Arg.(value & opt int 100 & info [ "cas" ] ~doc:"CAS share, permille.")

let dels =
  Arg.(value & opt int 70 & info [ "dels" ] ~doc:"Delete share, permille.")

let churn_ms =
  Arg.(
    value & opt int 0
    & info [ "churn" ] ~docv:"MS"
        ~doc:
          "Background churn: mean exponential session lifetime in \
           simulated ms (0 = none). Churned sessions reconnect after 5 ms.")

let storm_spec =
  Arg.(
    value
    & opt (some (pair ~sep:':' int int)) None
    & info [ "storm" ] ~docv:"AT:COUNT"
        ~doc:
          "Reconnect storm: disconnect $(i,COUNT) sessions at $(i,AT) ms \
           and spread their reconnects over the following 20 ms.")

let slow_spec =
  Arg.(
    value
    & opt (some (pair ~sep:':' int int)) None
    & info [ "slow" ] ~docv:"PER_NODE:RATE"
        ~doc:
          "Slow receivers: $(i,PER_NODE) sessions per daemon subscribed \
           to the KV group, each draining at $(i,RATE) messages/s.")

let wan_ns =
  Arg.(
    value & opt int 0
    & info [ "wan-ns" ]
        ~doc:
          "Extra one-way latency (ns) between the two halves of the \
           cluster, emulating a WAN/geo tier (0 = none).")

let partition_spec =
  Arg.(
    value
    & opt (some (pair ~sep:':' int int)) None
    & info [ "partition" ] ~docv:"AT:HEAL"
        ~doc:
          "Cut the last node away at $(i,AT) ms and heal at $(i,HEAL) ms \
           (simulated), exercising freeze, re-merge and state transfer \
           under load.")

let seed = Arg.(value & opt int 21 & info [ "seed" ] ~doc:"Simulation seed.")
let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log progress.")

let show_metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the full metrics registry after the run, including the \
           load.* series and the per-stage latency histograms.")

let cmd =
  let doc =
    "Open-loop production workload harness on the Accelerated Ring"
  in
  Cmd.v
    (Cmd.info "accelring_load" ~doc)
    Term.(
      const run $ nodes $ rings_arg $ mcas_arg $ net $ sessions $ groups $ rate
      $ periodic $ seconds
      $ keys $ theta $ reads $ sync_reads $ cas $ dels $ churn_ms $ storm_spec
      $ slow_spec $ wan_ns $ partition_spec $ seed $ verbose
      $ Trace_sinks.trace_file $ Trace_sinks.chrome_file $ show_metrics)

let () = exit (Cmd.eval cmd)
