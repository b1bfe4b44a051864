open Aring_ring
open Aring_sim
module Daemon = Aring_daemon.Daemon
module Kv = Aring_app.Kv
module Kv_scenario = Aring_app.Kv_scenario
module Oracle = Aring_app.Oracle
module Op = Aring_app.Op
module Prng = Aring_util.Prng
module Stats = Aring_util.Stats
module Metrics = Aring_obs.Metrics
module Span = Aring_obs.Span

type arrival = Poisson | Periodic

type storm = {
  storm_at_ns : int;
  storm_sessions : int;
  storm_window_ns : int;
}

type churn = {
  mean_lifetime_ns : int;
  reconnect_delay_ns : int;
  storm : storm option;
}

type slow_spec = { slow_per_node : int; drain_per_sec : float }
type geo = { classes : int array; latency_matrix : int array array }

type spec = {
  label : string;
  n_nodes : int;
  net : Profile.net;
  tier : Profile.tier;
  params : Params.t;
  sessions_per_node : int;
  n_groups : int;
  arrival : arrival;
  ops_per_sec : float;
  key_space : int;
  zipf_theta : float;
  value_mix : (int * int) list;
  read_permille : int;
  sync_read_permille : int;
  cas_permille : int;
  del_permille : int;
  mcas_permille : int;
  rings : int;
  churn : churn option;
  slow : slow_spec option;
  geo : geo option;
  partition : Kv_scenario.partition option;
  warmup_ns : int;
  measure_ns : int;
  drain_ns : int;
  seed : int64;
}

type sessions = {
  sessions_started : int;
  sessions_peak : int;
  reconnects : int;
  ops_offered : int;
  ops_skipped : int;
  writes_offered : int;
  sync_read_latency_us : Stats.t;
  queue_depth_peak : int;
  queue_depth_end : int;
  slow_inbox_peak : int;
  slow_inbox_end : int;
  slow_cuts : int;
  storm_steady_rate : float;
  storm_rate : float;
  storm_degradation : float;
  storm_recovered_ms : float;
  storm_all_reconnected : bool;
}

type result = {
  spec : spec;
  sessions_started : int;
  sessions_peak : int;
  reconnects : int;
  ops_offered : int;
  ops_skipped : int;
  writes_offered : int;
  writes_applied : int;
  offered_write_rate : float;
  applied_write_rate : float;
  write_latency_us : Stats.t;
  sync_read_latency_us : Stats.t;
  queue_depth_peak : int;
  queue_depth_end : int;
  slow_inbox_peak : int;
  slow_inbox_end : int;
  slow_cuts : int;
  storm_steady_rate : float;
  storm_rate : float;
  storm_degradation : float;
  storm_recovered_ms : float;
  storm_all_reconnected : bool;
  merge_wait_us : Stats.t;
  merged_total : int;
  per_ring_applied : int array;
  mcas_submitted : int;
  mcas_commits : int;
  mcas_aborts : int;
  mcas_retries : int;
  skip_credits_spent : int;
  oracles : Oracle.t array;
  oracle_violations : int;
  converged : bool;
  end_ns : int;
  metrics : Metrics.t;
}

type target = {
  sim : Netsim.t;
  daemon : ring:int -> node:int -> Daemon.t;
  kv : ring:int -> node:int -> Kv.t;
  shard : string -> int;
  mcas : (node:int -> id:string -> writes:(string * string) list -> unit) option;
  completes_at : int -> int;
  on_applied : (node:int -> Op.t -> int option) -> unit;
  settled : unit -> bool;
}

let ms n = n * 1_000_000

let default_spec =
  {
    label = "load";
    n_nodes = 4;
    net = Profile.gigabit;
    tier = Profile.daemon;
    params = Params.snappy;
    sessions_per_node = 500;
    n_groups = 16;
    arrival = Poisson;
    ops_per_sec = 12_000.0;
    key_space = 512;
    zipf_theta = 0.99;
    value_mix = [ (64, 6); (256, 3); (1024, 1) ];
    read_permille = 250;
    sync_read_permille = 50;
    cas_permille = 100;
    del_permille = 70;
    mcas_permille = 0;
    rings = 1;
    churn = None;
    slow = None;
    geo = None;
    partition = None;
    warmup_ns = ms 100;
    measure_ns = ms 300;
    drain_ns = ms 1_000;
    seed = 21L;
  }

(* One open-loop client slot, hosted by the daemon of ring [ring] at
   [node]. [gen] guards delayed churn/reconnect callbacks against acting
   on a slot whose session has turned over. *)
type sess = {
  id : int;
  node : int;
  ring : int;
  group : string;
  mutable handle : Daemon.session option;
  mutable gen : int;
  mutable counter : int;
}

let no_callbacks =
  {
    Daemon.on_message = (fun ~sender:_ ~groups:_ _ _ -> ());
    on_group_view = (fun ~group:_ ~members:_ -> ());
  }

let validate ~prefix spec =
  let fail what = invalid_arg (String.capitalize_ascii prefix ^ ".run: " ^ what) in
  if spec.n_nodes < 2 then fail "n_nodes < 2";
  if spec.sessions_per_node < 1 then fail "sessions_per_node < 1";
  if spec.n_groups < 1 then fail "n_groups < 1";
  if not (Float.is_finite spec.ops_per_sec && spec.ops_per_sec >= 0.0) then
    fail "ops_per_sec must be finite and >= 0";
  if spec.key_space < 1 then fail "key_space < 1";
  if spec.value_mix = [] then fail "empty value_mix";
  if List.exists (fun (_, w) -> w < 0) spec.value_mix then
    fail "negative value_mix weight";
  if List.fold_left (fun a (_, w) -> a + w) 0 spec.value_mix <= 0 then
    fail "value_mix weights sum to zero";
  if spec.mcas_permille < 0 || spec.mcas_permille > 1000 then
    fail "mcas_permille out of range";
  (* A cross-shard pair needs two distinct keys. *)
  if spec.mcas_permille > 0 && spec.key_space < 2 then
    fail "mcas needs key_space >= 2";
  Option.iter
    (fun g ->
      if Array.length g.classes <> spec.n_nodes then
        fail "geo classes must cover n_nodes")
    spec.geo;
  Option.iter
    (fun (p : Kv_scenario.partition) ->
      let island = List.sort_uniq compare p.island in
      if island = [] then fail "empty partition island";
      if List.exists (fun i -> i < 0 || i >= spec.n_nodes) island then
        fail "partition island node out of range";
      if List.length island = spec.n_nodes then
        fail "partition island holds every node";
      if p.heal_at_ns <= p.part_at_ns then
        fail "partition heals before it starts")
    spec.partition

let key_table n = Array.init n (Printf.sprintf "k%05d")

(* The characters of [string_of_int n]. *)
let rec int_width n =
  if n > -10 && n < 10 then if n < 0 then 2 else 1 else 1 + int_width (n / 10)

(* Write [n]'s digits into [b], the last at [i], leftward. Digits come
   from the remainders' magnitudes, so [min_int] needs no special case.
   Top level, so a value builds no closure over [b]. *)
let rec digits b n i =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + abs (n mod 10)));
  if n / 10 <> 0 then digits b (n / 10) (i - 1)

(* Write [n] in decimal into [b], [width] characters from [pos]; returns
   the position after it. *)
let set_int b pos n width =
  if n < 0 then Bytes.unsafe_set b pos '-';
  digits b n (pos + width - 1);
  pos + width

let tagged_value prefix a b suffix bytes =
  let wa = int_width a and wb = int_width b in
  let np = String.length prefix and ns = String.length suffix in
  let v = Bytes.make (max (np + wa + wb + 2 + ns) bytes) '.' in
  Bytes.blit_string prefix 0 v 0 np;
  let pos = set_int v np a wa in
  Bytes.unsafe_set v pos ':';
  let pos = set_int v (pos + 1) b wb in
  Bytes.unsafe_set v pos ':';
  Bytes.blit_string suffix 0 v (pos + 1) ns;
  Bytes.unsafe_to_string v

(* The value size of the [value_mix] bucket that the draw [r] (below
   the weights' sum) lands in, [acc] summing the weights before the
   list's head. Top level, so a draw builds no closure over [r]. *)
let rec pick r acc = function
  | [] -> 64
  | (bytes, w) :: rest -> if r < acc + w then bytes else pick r (acc + w) rest

(* The generator's PRNG salt: the ASCII bytes of the metric prefix
   ("load" = 0x6C6F6164). *)
let salt prefix =
  String.fold_left
    (fun acc c -> Int64.logor (Int64.shift_left acc 8) (Int64.of_int (Char.code c)))
    0L prefix

let start ~prefix ~metrics spec target =
  let n = spec.n_nodes and rings = spec.rings in
  let sim = target.sim in
  (* Network shape over every ring's participants [ring * n + node]:
     WAN latency classes and the partition window, both keyed by the
     physical node. Applied before the first event runs. *)
  Option.iter
    (fun g ->
      Netsim.set_latency_classes sim
        ~classes:(Array.init (rings * n) (fun p -> g.classes.(p mod n)))
        ~matrix:g.latency_matrix)
    spec.geo;
  Option.iter (Kv_scenario.install_partition sim n) spec.partition;
  let horizon = spec.warmup_ns + spec.measure_ns in
  let deadline = horizon + spec.drain_ns in
  (* ---------------- instruments ---------------- *)
  let metric name = prefix ^ "." ^ name in
  let m_offered = Metrics.counter metrics (metric "ops_offered") in
  let m_skipped = Metrics.counter metrics (metric "ops_skipped_disconnected") in
  let m_reconnects = Metrics.counter metrics (metric "reconnects") in
  let m_sessions = Metrics.gauge metrics (metric "sessions_connected") in
  let m_queue = Metrics.gauge metrics (metric "queue_depth") in
  let m_queue_peak = Metrics.gauge metrics (metric "queue_depth_peak") in
  let m_slow_inbox = Metrics.gauge metrics (metric "slow_inbox_depth") in
  let m_slow_drained = Metrics.counter metrics (metric "slow_drained") in
  let sync_latency = Stats.create () in
  let ops_offered = ref 0 in
  let ops_skipped = ref 0 in
  let writes_offered = ref 0 in
  let in_flight_total = ref 0 in
  let queue_peak = ref 0 in
  let connected = ref 0 in
  let sessions_peak = ref 0 in
  let reconnects = ref 0 in
  (* Applied-write time series at node 0, 1 ms bins, for the storm
     degradation and recovery SLOs. *)
  let bin_ns = ms 1 in
  let applied_bins = Array.make ((deadline / bin_ns) + 2) 0 in
  (* Submit times of tracked in-flight writes, per completing node,
     keyed by the unique value string the op carries. *)
  let in_flight = Array.init n (fun _ -> Hashtbl.create 1024) in
  target.on_applied (fun ~node op ->
      if node = 0 then begin
        let b = Netsim.now sim / bin_ns in
        if b >= 0 && b < Array.length applied_bins then
          applied_bins.(b) <- applied_bins.(b) + 1
      end;
      match op with
      | Op.Put { value; _ } | Op.Cas { value; _ } ->
          let t0 = Hashtbl.find_opt in_flight.(node) value in
          if Option.is_some t0 then begin
            Hashtbl.remove in_flight.(node) value;
            decr in_flight_total
          end;
          t0
      | _ -> None);
  let track ss value now =
    Hashtbl.replace in_flight.(target.completes_at ss.node) value now;
    incr in_flight_total;
    if !in_flight_total > !queue_peak then queue_peak := !in_flight_total
  in
  (* ---------------- session population ---------------- *)
  let total_sessions = n * spec.sessions_per_node in
  let sessions =
    Array.init total_sessions (fun i ->
        {
          id = i;
          node = i mod n;
          ring = i / n mod rings;
          group = Printf.sprintf "g%03d" (i mod spec.n_groups);
          handle = None;
          gen = 0;
          counter = 0;
        })
  in
  let prng = Prng.create ~seed:(Int64.logxor spec.seed (salt prefix)) in
  let zipf = Prng.zipf_table ~n:spec.key_space ~theta:spec.zipf_theta in
  let value_total =
    List.fold_left (fun a (_, w) -> a + w) 0 spec.value_mix
  in
  let draw_value_bytes () = pick (Prng.int prng value_total) 0 spec.value_mix in
  (* The value tagged [prefix] [a]:[b]: [suffix], dot-padded to a drawn size. *)
  let draw_value prefix a b suffix =
    tagged_value prefix a b suffix (draw_value_bytes ())
  in
  let keys = key_table spec.key_space in
  let key () = keys.(Prng.zipf prng zipf) in
  (* A cross-shard pair: draw until the second key lands on a different
     ring (bounded — heavy skew can defeat it, a same-shard mcas is
     still a valid single-part commit). *)
  let cross_shard_pair () =
    let k1 = key () in
    let s1 = target.shard k1 in
    let rec other tries =
      let k2 = key () in
      if k2 <> k1 && (target.shard k2 <> s1 || tries >= 8) then k2
      else other (tries + 1)
    in
    (k1, other 0)
  in
  let daemon ss = target.daemon ~ring:ss.ring ~node:ss.node in
  let connect_session ss =
    let h =
      Daemon.connect (daemon ss) ~name:(Printf.sprintf "u%05d" ss.id) no_callbacks
    in
    Daemon.join (daemon ss) h ss.group;
    ss.handle <- Some h;
    ss.gen <- ss.gen + 1;
    incr connected;
    if !connected > !sessions_peak then sessions_peak := !connected
  in
  let disconnect_session ss =
    match ss.handle with
    | None -> ()
    | Some h ->
        Daemon.disconnect (daemon ss) h;
        ss.handle <- None;
        ss.gen <- ss.gen + 1;
        decr connected
  in
  (* One KV op per arrival, independent of any completion, on the
     replica the key routes to from the session's node. *)
  let do_op ss now =
    let in_window = now >= spec.warmup_ns && now < horizon in
    if in_window then incr ops_offered;
    Metrics.incr m_offered;
    ss.counter <- ss.counter + 1;
    let key = key () in
    let kv = target.kv ~ring:(target.shard key) ~node:ss.node in
    let r = Prng.int prng 1000 in
    let sync_edge = spec.read_permille + spec.sync_read_permille in
    let cas_edge = sync_edge + spec.cas_permille in
    let del_edge = cas_edge + spec.del_permille in
    let mcas_edge = del_edge + spec.mcas_permille in
    if r < spec.read_permille then ignore (Kv.read kv ~key)
    else if r < sync_edge then
      let t0 = now in
      Kv.sync_read kv ~key ~on_result:(fun _ ~token:_ ->
          Stats.add_ns sync_latency (Netsim.now sim - t0))
    else if r < cas_edge then begin
      if in_window then incr writes_offered;
      let value = draw_value "c:" ss.id ss.counter "" in
      track ss value now;
      let expect, _ = Kv.read kv ~key in
      Kv.cas kv ~key ~expect ~value
    end
    else if r < del_edge then begin
      if in_window then incr writes_offered;
      Kv.del kv ~key
    end
    else if r < mcas_edge then begin
      (* Cross-shard multi-key cas, both writes tracked. *)
      if in_window then incr writes_offered;
      let k1, k2 = cross_shard_pair () in
      let id = Printf.sprintf "m:%d:%d" ss.id ss.counter in
      let v1 = draw_value "x:m:" ss.id ss.counter "a:" in
      let v2 = draw_value "x:m:" ss.id ss.counter "b:" in
      track ss v1 now;
      track ss v2 now;
      Option.iter
        (fun mcas -> mcas ~node:ss.node ~id ~writes:[ (k1, v1); (k2, v2) ])
        target.mcas
    end
    else begin
      if in_window then incr writes_offered;
      let value = draw_value "w:" ss.id ss.counter "" in
      track ss value now;
      Kv.put kv ~key ~value
    end
  in
  (* The open-loop arrival process: fire, then reschedule by the
     arrival law — never by completions. Disconnected slots and slots
     whose participant is dead keep their clock running (arrivals are
     skipped, not deferred). Each session's thunk is built once and
     reschedules itself. *)
  let mean_ns = 1e9 /. (spec.ops_per_sec /. float_of_int total_sessions) in
  let arrivals ss =
    let rec arrive () =
      let now = Netsim.now sim in
      if now < horizon then begin
        (if ss.handle <> None && Netsim.is_alive sim ((ss.ring * n) + ss.node)
         then do_op ss now
         else begin
           incr ops_skipped;
           Metrics.incr m_skipped
         end);
        let interval =
          match spec.arrival with
          | Poisson -> Prng.exponential_int prng ~mean:mean_ns
          | Periodic -> int_of_float mean_ns
        in
        Netsim.call_at sim ~at:(now + max 1_000 interval) arrive
      end
    in
    arrive
  in
  (* Background churn: exponential lifetimes, fixed reconnect delay. *)
  let rec schedule_lifetime ss ch =
    if ch.mean_lifetime_ns > 0 then begin
      let gen = ss.gen in
      let dt =
        Prng.exponential_int prng ~mean:(float_of_int ch.mean_lifetime_ns)
      in
      Netsim.call_at sim
        ~at:(Netsim.now sim + max (ms 1) dt)
        (fun () ->
          if ss.gen = gen && ss.handle <> None && Netsim.now sim < horizon
          then begin
            disconnect_session ss;
            Netsim.call_at sim
              ~at:(Netsim.now sim + ch.reconnect_delay_ns)
              (fun () ->
                if ss.handle = None then begin
                  connect_session ss;
                  incr reconnects;
                  Metrics.incr m_reconnects;
                  schedule_lifetime ss ch
                end)
          end)
    end
  in
  (* Staggered connect + arrival start: the whole population is up by
     60% of the warmup. A zero rate starts no arrivals. *)
  let connect_spread = max 5_000 (spec.warmup_ns * 3 / 5 / total_sessions) in
  Array.iter
    (fun ss ->
      Netsim.call_at sim
        ~at:(500_000 + (ss.id * connect_spread))
        (fun () ->
          connect_session ss;
          Option.iter (schedule_lifetime ss) spec.churn;
          if spec.ops_per_sec > 0.0 then arrivals ss ()))
    sessions;
  (* ---------------- reconnect storm ---------------- *)
  let storm = Option.bind spec.churn (fun c -> c.storm) in
  let storm_set =
    match storm with
    | None -> [||]
    | Some st -> Array.sub sessions 0 (min st.storm_sessions total_sessions)
  in
  let storm_end_ns =
    match storm with
    | None -> 0
    | Some st -> st.storm_at_ns + st.storm_window_ns + ms 1
  in
  let recovered_at = ref (-1) in
  let pre_storm_peak = ref 0 in
  Option.iter
    (fun st ->
      Netsim.call_at sim ~at:st.storm_at_ns (fun () ->
          pre_storm_peak := !queue_peak;
          Array.iter
            (fun ss ->
              if ss.handle <> None then begin
                disconnect_session ss;
                let back =
                  st.storm_at_ns + ms 1 + Prng.int prng (max 1 st.storm_window_ns)
                in
                Netsim.call_at sim ~at:back (fun () ->
                    if ss.handle = None then begin
                      connect_session ss;
                      incr reconnects;
                      Metrics.incr m_reconnects
                    end)
              end)
            storm_set))
    storm;
  (* ---------------- slow receivers ---------------- *)
  (* [slow_per_node] per daemon, i.e. per (ring, node) participant, each
     a slot holding its current session. When the daemon cuts a session
     at its inbox limit, the next pump tick sees it and the client
     reconnects under the same name one tick later, slow again. *)
  let slow_slots = ref [] in
  let slow_inbox_peak = ref 0 in
  Option.iter
    (fun sl ->
      let batch = max 1 (int_of_float (sl.drain_per_sec *. 0.004)) in
      let callbacks =
        {
          Daemon.on_message = (fun ~sender:_ ~groups:_ _ _ -> Metrics.incr m_slow_drained);
          on_group_view = (fun ~group:_ ~members:_ -> ());
        }
      in
      for ring = 0 to rings - 1 do
        for node = 0 to n - 1 do
          let d = target.daemon ~ring ~node and pid = (ring * n) + node in
          for i = 0 to sl.slow_per_node - 1 do
            let slot = ref None in
            slow_slots := (d, slot) :: !slow_slots;
            let rec connect () =
              let h = Daemon.connect d ~name:(Printf.sprintf "slow%d" i) callbacks in
              (* Subscribing to the KV group puts the ring's full
                 ordered write stream through this session. *)
              Daemon.join d h Kv.group;
              Daemon.set_slow_receiver d h true;
              slot := Some h;
              Netsim.call_at sim ~at:(Netsim.now sim + ms 4) pump_tick
            and pump_tick () =
              let now = Netsim.now sim in
              match !slot with
              | Some h when now < deadline ->
                  if Daemon.is_cut d h then begin
                    slot := None;
                    Netsim.call_at sim ~at:(now + ms 4) connect
                  end
                  else begin
                    ignore (Daemon.pump d h ~max:batch);
                    Netsim.call_at sim ~at:(now + ms 4) pump_tick
                  end
              | Some _ | None -> ()
            in
            Netsim.call_at sim ~at:(200_000 + (((pid * sl.slow_per_node) + i) * 7_000)) connect
          done
        done
      done)
    spec.slow;
  let slow_inbox () =
    List.fold_left
      (fun acc (d, slot) ->
        match !slot with Some h -> acc + Daemon.inbox_depth d h | None -> acc)
      0 !slow_slots
  in
  (* Only slow sessions park, so every cut is one of theirs. *)
  let slow_cuts () =
    let cuts = ref 0 in
    for ring = 0 to rings - 1 do
      for node = 0 to n - 1 do
        cuts := !cuts + (Daemon.stats (target.daemon ~ring ~node)).sessions_cut
      done
    done;
    !cuts
  in
  (* ---------------- periodic sampler ---------------- *)
  let rec sample () =
    let now = Netsim.now sim in
    Metrics.set m_sessions (float_of_int !connected);
    Metrics.set m_queue (float_of_int !in_flight_total);
    Metrics.set m_queue_peak (float_of_int !queue_peak);
    let inbox_total = slow_inbox () in
    if inbox_total > !slow_inbox_peak then slow_inbox_peak := inbox_total;
    Metrics.set m_slow_inbox (float_of_int inbox_total);
    (match storm with
    | Some _ when now > storm_end_ns && !recovered_at < 0 ->
        let all_back =
          Array.for_all (fun ss -> ss.handle <> None) storm_set
        in
        let threshold = max 32 (2 * !pre_storm_peak) in
        if all_back && !in_flight_total <= threshold then
          recovered_at := now
    | _ -> ());
    if now < deadline then Netsim.call_at sim ~at:(now + ms 2) sample
  in
  Netsim.call_at sim ~at:(ms 1) sample;
  (* ---------------- storm SLOs, once the sim has run ---------------- *)
  fun () ->
    let rate_over a b =
      if b <= a then 0.0
      else begin
        let lo = a / bin_ns and hi = min (b / bin_ns) (Array.length applied_bins - 1) in
        let count = ref 0 in
        for i = lo to hi do
          count := !count + applied_bins.(i)
        done;
        float_of_int !count /. (float_of_int (b - a) /. 1e9)
      end
    in
    let storm_steady_rate, storm_rate, storm_degradation, storm_recovered_ms,
        storm_all_reconnected =
      match storm with
      | None -> (0.0, 0.0, 0.0, 0.0, true)
      | Some st ->
          let steady = rate_over spec.warmup_ns st.storm_at_ns in
          let during = rate_over st.storm_at_ns storm_end_ns in
          let degradation =
            if steady <= 0.0 then 1.0
            else Float.max 0.0 (Float.min 1.0 (1.0 -. (during /. steady)))
          in
          let recovered_ms =
            if !recovered_at < 0 then -1.0
            else float_of_int (!recovered_at - storm_end_ns) /. 1e6
          in
          ( steady,
            during,
            degradation,
            recovered_ms,
            Array.for_all (fun ss -> ss.handle <> None) storm_set )
    in
    ({
       sessions_started = total_sessions;
       sessions_peak = !sessions_peak;
       reconnects = !reconnects;
       ops_offered = !ops_offered;
       ops_skipped = !ops_skipped;
       writes_offered = !writes_offered;
       sync_read_latency_us = sync_latency;
       queue_depth_peak = !queue_peak;
       queue_depth_end = !in_flight_total;
       slow_inbox_peak = !slow_inbox_peak;
       slow_inbox_end = slow_inbox ();
       slow_cuts = slow_cuts ();
       storm_steady_rate;
       storm_rate;
       storm_degradation;
       storm_recovered_ms;
       storm_all_reconnected;
     }
      : sessions)

let drive ~prefix ~metrics spec target =
  let finish = start ~prefix ~metrics spec target in
  let horizon = spec.warmup_ns + spec.measure_ns in
  let deadline = horizon + spec.drain_ns in
  let pending () =
    let total = ref 0 in
    for ring = 0 to spec.rings - 1 do
      for node = 0 to spec.n_nodes - 1 do
        total := !total + Kv.pending_sync_reads (target.kv ~ring ~node)
      done
    done;
    !total
  in
  let t = ref 0 in
  let stop = ref false in
  while not !stop do
    t := min deadline (!t + ms 25);
    Netsim.run_until target.sim !t;
    if !t >= deadline then stop := true
    else if !t > horizon && target.settled () && pending () = 0 then
      stop := true
  done;
  finish ()

(* The result of a driven run, at any ring count: [s]'s session fields,
   the replica outcome and rates over the measurement window ([applied]
   items at node 0). The merge and mcas fields are empty; a multi-ring
   run sets them on the returned record. *)
let result spec (s : sessions) ~writes_applied ~applied ~write_latency_us
    ~oracles ~converged ~end_ns ~metrics =
  let measure_s = float_of_int spec.measure_ns /. 1e9 in
  {
    spec;
    sessions_started = s.sessions_started;
    sessions_peak = s.sessions_peak;
    reconnects = s.reconnects;
    ops_offered = s.ops_offered;
    ops_skipped = s.ops_skipped;
    writes_offered = s.writes_offered;
    writes_applied;
    offered_write_rate = float_of_int s.writes_offered /. measure_s;
    applied_write_rate = float_of_int applied /. measure_s;
    write_latency_us;
    sync_read_latency_us = s.sync_read_latency_us;
    queue_depth_peak = s.queue_depth_peak;
    queue_depth_end = s.queue_depth_end;
    slow_inbox_peak = s.slow_inbox_peak;
    slow_inbox_end = s.slow_inbox_end;
    slow_cuts = s.slow_cuts;
    storm_steady_rate = s.storm_steady_rate;
    storm_rate = s.storm_rate;
    storm_degradation = s.storm_degradation;
    storm_recovered_ms = s.storm_recovered_ms;
    storm_all_reconnected = s.storm_all_reconnected;
    merge_wait_us = Stats.create ();
    merged_total = 0;
    per_ring_applied = [||];
    mcas_submitted = 0;
    mcas_commits = 0;
    mcas_aborts = 0;
    mcas_retries = 0;
    skip_credits_spent = 0;
    oracles;
    oracle_violations =
      Array.fold_left (fun acc o -> acc + Oracle.violation_count o) 0 oracles;
    converged;
    end_ns;
    metrics;
  }

(* The 1-ring target: {!Kv_scenario.build_cluster}, with a span
   collector active while it is driven. A write completes on apply at
   the replica that submitted it. *)
let run spec =
  if spec.rings <> 1 then
    invalid_arg "Load.run: multi-ring specs run via Aring_multiring.Mload.run";
  if spec.mcas_permille <> 0 then
    invalid_arg "Load.run: mcas needs a multi-ring run (Mload)";
  validate ~prefix:"load" spec;
  let { Kv_scenario.sim; kvs; daemons; oracles; _ } =
    Kv_scenario.build_cluster
      ~tiers:(Array.make spec.n_nodes spec.tier)
      ~rings:1 ~n:spec.n_nodes ~net:spec.net ~params:spec.params
      ~seed:spec.seed ()
  in
  let metrics = Metrics.create () in
  let span = Span.create ~metrics () in
  let horizon = spec.warmup_ns + spec.measure_ns in
  let write_latency = Stats.create () in
  let writes_applied = ref 0 in
  let on_applied applied =
    Array.iteri
      (fun node kv ->
        Kv.add_observer kv (function
          | Kv.Applied { op; _ } -> (
              let now = Netsim.now sim in
              if node = 0 && now >= spec.warmup_ns && now < horizon then
                incr writes_applied;
              match applied ~node op with
              | Some t0 -> Stats.add_ns write_latency (now - t0)
              | None -> ())
          | _ -> ()))
      kvs
  in
  let s =
    Span.with_span span (fun () ->
        drive ~prefix:"load" ~metrics spec
          {
            sim;
            daemon = (fun ~ring:_ ~node -> daemons.(node));
            kv = (fun ~ring:_ ~node -> kvs.(node));
            shard = (fun _ -> 0);
            mcas = None;
            completes_at = Fun.id;
            on_applied;
            settled = (fun () -> Kv_scenario.kv_converged kvs);
          })
  in
  Oracle.check_convergence oracles.(0) (Array.to_list kvs);
  Netsim.record_metrics sim metrics;
  Array.iter (fun d -> Daemon.record_metrics d metrics) daemons;
  Array.iter (fun kv -> Kv.record_metrics kv metrics) kvs;
  result spec s ~writes_applied:!writes_applied ~applied:!writes_applied
    ~write_latency_us:write_latency ~oracles
    ~converged:(Kv_scenario.kv_converged kvs) ~end_ns:(Netsim.now sim) ~metrics

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d nodes, %d sessions (peak %d), %.0f ops/s offered@,\
    \  offered: %d ops (%d writes, %.0f/s), skipped %d; applied@node0: %d \
     (%.0f/s)@,\
    \  write latency p50=%.0fus p99=%.0fus p99.9=%.0fus; sync reads: %d \
     (p99=%.0fus)@,\
    \  open-loop queue: peak %d, end %d; slow inbox: peak %d, end %d, cuts %d@,\
    \  churn: %d reconnects%s"
    r.spec.label r.spec.n_nodes r.sessions_started r.sessions_peak
    r.spec.ops_per_sec r.ops_offered r.writes_offered r.offered_write_rate
    r.ops_skipped r.writes_applied r.applied_write_rate
    (Stats.percentile r.write_latency_us 50.0)
    (Stats.percentile r.write_latency_us 99.0)
    (Stats.p999 r.write_latency_us)
    (Stats.count r.sync_read_latency_us)
    (Stats.percentile r.sync_read_latency_us 99.0)
    r.queue_depth_peak r.queue_depth_end r.slow_inbox_peak r.slow_inbox_end r.slow_cuts
    r.reconnects
    (match Option.bind r.spec.churn (fun c -> c.storm) with
    | None -> ""
    | Some _ ->
        Printf.sprintf
          "; storm: steady %.0f/s -> %.0f/s (degradation %.0f%%), recovered \
           %.1fms, all back=%b"
          r.storm_steady_rate r.storm_rate
          (100.0 *. r.storm_degradation)
          r.storm_recovered_ms r.storm_all_reconnected);
  if r.spec.rings > 1 then
    Format.fprintf ppf
      "@,  merge (%d rings): %d merged, per ring %s; wait p50=%.0fus \
       p99=%.0fus; skips %d@,\
      \  mcas: %d submitted, %d commits, %d aborts, %d retries"
      r.spec.rings r.merged_total
      (String.concat "," (Array.to_list (Array.map string_of_int r.per_ring_applied)))
      (Stats.percentile r.merge_wait_us 50.0)
      (Stats.percentile r.merge_wait_us 99.0)
      r.skip_credits_spent r.mcas_submitted r.mcas_commits r.mcas_aborts
      r.mcas_retries;
  Format.fprintf ppf "@,  oracle: %d violation(s), converged=%b"
    r.oracle_violations r.converged;
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
