open Aring_ring
open Aring_sim
module Daemon = Aring_daemon.Daemon
module Prng = Aring_util.Prng
module Stats = Aring_util.Stats
module Metrics = Aring_obs.Metrics
module Span = Aring_obs.Span
module Scenario = Aring_harness.Scenario

type partition = { part_at_ns : int; heal_at_ns : int; island : int list }

type spec = {
  label : string;
  n_nodes : int;
  net : Profile.net;
  tier : Profile.tier;
  params : Params.t;
  key_space : int;
  hot_keys : int;
  hot_permille : int;
  value_bytes : int;
  read_permille : int;
  sync_read_permille : int;
  cas_permille : int;
  del_permille : int;
  ops_per_sec : float;
  load : (int * float) list;
  warmup_ns : int;
  measure_ns : int;
  drain_ns : int;
  seed : int64;
  partition : partition option;
}

type result = {
  spec : spec;
  writes_submitted : int;
  writes_applied : int;
  write_ops_per_sec : float;
  write_latency_us : Stats.t;
  sync_read_latency_us : Stats.t;
  reads : int;
  installs : int;
  transfer_us : Stats.t;
  oracle : Oracle.t;
  oracle_violations : int;
  converged : bool;
  final_store_size : int;
  end_ns : int;
  metrics : Metrics.t;
}

let ms n = n * 1_000_000

let pad tag bytes =
  let len = max (String.length tag) bytes in
  let b = Bytes.make len '.' in
  Bytes.blit_string tag 0 b 0 (String.length tag);
  Bytes.to_string b

(* Fast membership timeouts: scenario runs are short, and partition
   merges must complete well inside the drain budget. *)
let snappy_params () =
  let p = Params.accelerated () in
  {
    p with
    Params.token_loss_ns = ms 50;
    token_retransmit_ns = ms 10;
    join_retransmit_ns = ms 20;
    consensus_timeout_ns = ms 100;
    merge_probe_ns = ms 80;
  }

let default_spec =
  {
    label = "kv";
    n_nodes = 4;
    net = Profile.gigabit;
    tier = Profile.daemon;
    params = snappy_params ();
    key_space = 64;
    hot_keys = 8;
    hot_permille = 800;
    value_bytes = 128;
    read_permille = 250;
    sync_read_permille = 50;
    cas_permille = 100;
    del_permille = 70;
    ops_per_sec = 20_000.0;
    load = [];
    warmup_ns = ms 50;
    measure_ns = ms 200;
    drain_ns = ms 1_000;
    seed = 11L;
    partition = None;
  }

type cluster = {
  sim : Netsim.t;
  kvs : Kv.t array;
  daemons : Daemon.t array;
  oracle : Oracle.t;
  view_ns : int array;  (** Last regular-view delivery time per node. *)
}

let build_cluster ~n ~net ~tier ~params ~seed =
  let initial_ring = Array.init n (fun i -> i) in
  let members =
    Array.init n (fun me -> Member.create ~params ~me ~initial_ring ())
  in
  let daemons = Array.init n (fun i -> Daemon.create ~member:members.(i) ()) in
  let kvs =
    Array.init n (fun i -> Kv.create ~cluster_size:n ~daemon:daemons.(i) ())
  in
  let oracle = Oracle.create () in
  Array.iter (fun kv -> Oracle.attach oracle kv) kvs;
  let participants = Array.map Daemon.participant daemons in
  let sim = Netsim.create ~net ~tiers:(Array.make n tier) ~participants ~seed () in
  let view_ns = Array.make n 0 in
  Netsim.on_view sim (fun ~at:node ~now (v : Participant.view) ->
      if not v.transitional then view_ns.(node) <- now);
  { sim; kvs; daemons; oracle; view_ns }

(* Participant [pid] is physical node [pid mod n]: on a multi-ring
   deployment the island is cut away in every ring. *)
let install_partition sim n (p : partition) =
  let inside = Array.make n false in
  List.iter (fun i -> if i >= 0 && i < n then inside.(i) <- true) p.island;
  Netsim.set_drop sim (fun ~src ~dst _ ->
      let now = Netsim.now sim in
      now >= p.part_at_ns && now < p.heal_at_ns
      && inside.(src mod n) <> inside.(dst mod n))

let kv_converged kvs =
  let n = Array.length kvs in
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (Kv.settled kvs.(i) && Kv.synced kvs.(i)) then ok := false
  done;
  for i = 1 to n - 1 do
    if
      Kv.applied kvs.(i) <> Kv.applied kvs.(0)
      || Kv.digest kvs.(i) <> Kv.digest kvs.(0)
    then ok := false
  done;
  !ok

let run spec =
  let n = spec.n_nodes in
  let cl =
    build_cluster ~n ~net:spec.net ~tier:spec.tier ~params:spec.params
      ~seed:spec.seed
  in
  let sim = cl.sim and kvs = cl.kvs in
  Option.iter (install_partition sim n) spec.partition;
  (* Latency spans are always collected here: the stage histograms land
     in the run's metrics registry under the span dotted names,
     decomposing the end-to-end write latency into ordering, delivery
     and apply stages. The collector is deterministic (virtual clock, no
     trace events), so it never perturbs results. *)
  let metrics = Metrics.create () in
  let span = Span.create ~metrics () in
  Span.attach span;
  let horizon = spec.warmup_ns + spec.measure_ns in
  let deadline = horizon + spec.drain_ns in
  let write_latency = Stats.create () in
  let sync_latency = Stats.create () in
  let transfer = Stats.create () in
  let installs = ref 0 in
  let writes_applied = ref 0 in
  (* Submit times of in-flight tracked writes, per node, keyed by the
     (unique) value string the op carries. *)
  let in_flight = Array.init n (fun _ -> Hashtbl.create 256) in
  Array.iteri
    (fun node kv ->
      Kv.add_observer kv (function
        | Kv.Applied { op; _ } -> (
            let now = Netsim.now sim in
            if node = 0 && now >= spec.warmup_ns && now < horizon then
              incr writes_applied;
            match op with
            | Op.Put { value; _ } | Op.Cas { value; _ } -> (
                match Hashtbl.find_opt in_flight.(node) value with
                | Some t0 ->
                    Hashtbl.remove in_flight.(node) value;
                    Stats.add write_latency
                      (float_of_int (Netsim.now sim - t0) /. 1e3)
                | None -> ())
            | _ -> ())
        | Kv.Installed { entries; _ } ->
            incr installs;
            let dt = Netsim.now sim - cl.view_ns.(node) in
            ignore entries;
            Stats.add transfer (float_of_int dt /. 1e3)
        | _ -> ()))
    kvs;
  (* Open-loop workload: each node offers its 1/n share of the scheduled
     aggregate op rate, with a skewed key distribution. *)
  let prng = Prng.create ~seed:(Int64.logxor spec.seed 0x6B767363L) in
  let writes_submitted = ref 0 in
  for node = 0 to n - 1 do
    let counter = ref 0 in
    let key () =
      let j =
        if Prng.int prng 1000 < spec.hot_permille then
          Prng.int prng (max 1 spec.hot_keys)
        else
          spec.hot_keys
          + Prng.int prng (max 1 (spec.key_space - spec.hot_keys))
      in
      Printf.sprintf "k%04d" j
    in
    let rec tick () =
      let now = Netsim.now sim in
      if now < horizon then begin
        let rate =
          Scenario.rate_at_schedule ~default:spec.ops_per_sec spec.load now
        in
        if rate <= 0.0 then Netsim.call_at sim ~at:(now + ms 1) tick
        else begin
          incr counter;
          let kv = kvs.(node) in
          let key = key () in
          let r = Prng.int prng 1000 in
          let sync_edge = spec.read_permille + spec.sync_read_permille in
          let cas_edge = sync_edge + spec.cas_permille in
          let del_edge = cas_edge + spec.del_permille in
          if r < spec.read_permille then ignore (Kv.read kv ~key)
          else if r < sync_edge then begin
            let t0 = now in
            Kv.sync_read kv ~key ~on_result:(fun _ ~token:_ ->
                Stats.add sync_latency
                  (float_of_int (Netsim.now sim - t0) /. 1e3))
          end
          else if r < cas_edge then begin
            incr writes_submitted;
            let value = pad (Printf.sprintf "c:%d:%d:" node !counter) spec.value_bytes in
            Hashtbl.replace in_flight.(node) value now;
            let expect, _ = Kv.read kv ~key in
            Kv.cas kv ~key ~expect ~value
          end
          else if r < del_edge then begin
            incr writes_submitted;
            Kv.del kv ~key
          end
          else begin
            incr writes_submitted;
            let value = pad (Printf.sprintf "w:%d:%d:" node !counter) spec.value_bytes in
            Hashtbl.replace in_flight.(node) value now;
            Kv.put kv ~key ~value
          end;
          let interval =
            int_of_float (1e9 /. (rate /. float_of_int n))
          in
          Netsim.call_at sim ~at:(now + max 1_000 interval) tick
        end
      end
    in
    Netsim.call_at sim ~at:(ms 1 + (node * 83_000)) tick
  done;
  (* Chunked drain: stop as soon as the workload is over, every replica
     has settled on one state and all sync reads are answered. *)
  let pending () =
    Array.fold_left (fun acc kv -> acc + Kv.pending_sync_reads kv) 0 kvs
  in
  let t = ref 0 in
  let stop = ref false in
  Fun.protect ~finally:Span.detach (fun () ->
      while not !stop do
        t := min deadline (!t + ms 25);
        Netsim.run_until sim !t;
        if !t >= deadline then stop := true
        else if !t > horizon && kv_converged kvs && pending () = 0 then
          stop := true
      done);
  Oracle.check_convergence cl.oracle (Array.to_list kvs);
  Netsim.record_metrics sim metrics;
  Array.iter (fun d -> Daemon.record_metrics d metrics) cl.daemons;
  Array.iter (fun kv -> Kv.record_metrics kv metrics) kvs;
  {
    spec;
    writes_submitted = !writes_submitted;
    writes_applied = !writes_applied;
    write_ops_per_sec =
      float_of_int !writes_applied /. (float_of_int spec.measure_ns /. 1e9);
    write_latency_us = write_latency;
    sync_read_latency_us = sync_latency;
    reads = Array.fold_left (fun acc kv -> acc + (Kv.stats kv).Kv.reads) 0 kvs;
    installs = !installs;
    transfer_us = transfer;
    oracle = cl.oracle;
    oracle_violations = Oracle.violation_count cl.oracle;
    converged = kv_converged kvs;
    final_store_size = Kv.store_size kvs.(0);
    end_ns = Netsim.now sim;
    metrics;
  }

type transfer_result = {
  entries_transferred : int;
  bytes_transferred : int;
  xfer_us : float;
  total_installs : int;
}

let measure_transfer ?(n_nodes = 4) ?(value_bytes = 128) ?(seed = 7L)
    ~store_entries () =
  let n = n_nodes in
  if n < 3 then invalid_arg "Kv_scenario.measure_transfer: n_nodes < 3";
  let cl =
    build_cluster ~n ~net:Profile.gigabit ~tier:Profile.daemon
      ~params:(snappy_params ()) ~seed
  in
  let sim = cl.sim and kvs = cl.kvs in
  let value = String.make value_bytes 'x' in
  let preloaded =
    List.init store_entries (fun i -> (Printf.sprintf "p%06d" i, value))
  in
  Array.iter (fun kv -> Kv.preload kv preloaded) kvs;
  let joiner = n - 1 in
  let part = { part_at_ns = ms 5; heal_at_ns = ms 120; island = [ joiner ] } in
  install_partition sim n part;
  (* Diverge the majority so the healed minority member needs the
     snapshot; writes ride node 0's replica while the island is cut. *)
  let burst = 64 in
  for i = 0 to burst - 1 do
    Netsim.call_at sim
      ~at:(ms 20 + (i * 300_000))
      (fun () ->
        Kv.put kvs.(0) ~key:(Printf.sprintf "b%03d" i) ~value:"burst")
  done;
  let install = ref None in
  Kv.add_observer kvs.(joiner) (function
    | Kv.Installed { entries; _ } when Netsim.now sim > part.heal_at_ns ->
        let bytes =
          List.fold_left
            (fun acc (k, v) -> acc + String.length k + String.length v)
            0 entries
        in
        install :=
          Some
            ( List.length entries,
              bytes,
              float_of_int (Netsim.now sim - cl.view_ns.(joiner)) /. 1e3 )
    | _ -> ());
  let deadline = ms 2_000 in
  let t = ref 0 in
  while !install = None && !t < deadline do
    t := !t + ms 25;
    Netsim.run_until sim !t
  done;
  match !install with
  | None ->
      failwith
        (Printf.sprintf
           "Kv_scenario.measure_transfer: no install within %dms (entries=%d)"
           (deadline / ms 1) store_entries)
  | Some (entries_transferred, bytes_transferred, xfer_us) ->
      (* Let the replay settle, then sanity-check convergence. *)
      Netsim.run_until sim (!t + ms 200);
      Oracle.check_convergence cl.oracle (Array.to_list kvs);
      if Oracle.violation_count cl.oracle > 0 then
        failwith
          (Format.asprintf "Kv_scenario.measure_transfer: %a" Oracle.pp
             cl.oracle);
      {
        entries_transferred;
        bytes_transferred;
        xfer_us;
        total_installs =
          Array.fold_left
            (fun acc kv -> acc + (Kv.stats kv).Kv.installs)
            0 kvs;
      }

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d nodes, %.0f ops/s offered@,\
    \  writes: %d submitted, %d applied@node0 (%.0f/s), latency p50=%.0fus \
     p99=%.0fus@,\
    \  sync reads: %d (p50=%.0fus p99=%.0fus), local reads: %d@,\
    \  transfers: %d installs%s@,\
    \  oracle: %d violation(s), converged=%b, store=%d entries"
    r.spec.label r.spec.n_nodes r.spec.ops_per_sec r.writes_submitted
    r.writes_applied r.write_ops_per_sec
    (Stats.percentile r.write_latency_us 50.0)
    (Stats.percentile r.write_latency_us 99.0)
    (Stats.count r.sync_read_latency_us)
    (Stats.percentile r.sync_read_latency_us 50.0)
    (Stats.percentile r.sync_read_latency_us 99.0)
    r.reads r.installs
    (if Stats.count r.transfer_us > 0 then
       Printf.sprintf " (xfer p50=%.0fus)"
         (Stats.percentile r.transfer_us 50.0)
     else "")
    r.oracle_violations r.converged r.final_store_size;
  (match Span.report_of_metrics r.metrics with
  | [] -> ()
  | stages ->
      Format.fprintf ppf "@,  latency by stage:";
      List.iter
        (fun (s : Span.stage_report) ->
          Format.fprintf ppf
            "@,    %-22s n=%-7d p50=%.1fus p99=%.1fus p99.9=%.1fus"
            s.Span.stage s.Span.count s.Span.p50_us s.Span.p99_us s.Span.p999_us)
        stages);
  Format.fprintf ppf "@]"
