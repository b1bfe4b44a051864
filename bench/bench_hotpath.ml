(* Hot-path allocation benchmark (`-- hotpath [quick]`): allocated bytes
   per message of the pooled codec against the Buffer-based reference
   encoder, of the KV write path's app payload (its one-pass write,
   delivery to a replica, and an own put's delivery to its replica), of
   the daemon's idle token visit, group change and slow-receiver inbox,
   per item of the multi-ring learner merge, per call of the shared host
   primitives (FNV-1a, the PRNG, histogram and sample accumulators), and
   allocation, host rate and simulator events of the full simulated
   pipeline. Gated by bench/hotpath_budget.json. Schema documented in
   EXPERIMENTS.md. *)

open Aring_wire
open Aring_ring
open Aring_sim
open Aring_harness
module Json = Aring_obs.Json
module Stats = Aring_util.Stats
module Daemon = Aring_daemon.Daemon
module Envelope = Aring_daemon.Envelope
module Kv = Aring_app.Kv
module Op = Aring_app.Op
module Merge = Aring_multiring.Merge
module Fnv = Aring_util.Fnv
module Prng = Aring_util.Prng
module Metrics = Aring_obs.Metrics
module Trace = Aring_obs.Trace
module Rotation = Aring_obs.Rotation

let ms n = n * 1_000_000

(* Allocated bytes per call of [f], measured with [Gc.allocated_bytes]
   (counts minor and direct-to-major allocations; the counters are exact
   only after a minor collection, hence one at each end). *)
let alloc_per_call ~iters f =
  for _ = 1 to 1_000 do f () done;
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  for _ = 1 to iters do f () done;
  Gc.minor ();
  let after = Gc.allocated_bytes () in
  (after -. before) /. float_of_int iters

let value_bytes = 1024

(* The KV write path's payload: a put's op written once, by [Op.write],
   inside the envelope carrying it to the KV group, and the exact-size
   frame copied out, as a daemon writes its submission frame. *)
let kv_groups = [ Kv.group ]

let write_put s op = Envelope.write_app s ~sender:"#kv#1" ~groups:kv_groups Op.write op

let put_envelope value = Codec.encode_exact write_put (Op.Put { key = "k00001"; value })

let ring_size = 4

(* One operational member of a 4-member ring with a daemon on it, the
   ring's id, and [feed], which hands the daemon's participant in-order
   data from pid 1 with a caught-up token every 256 messages so the
   engine's retention stays bounded. *)
let ring_daemon () =
  let m =
    Member.create ~params:Params.default ~me:0
      ~initial_ring:(Array.init ring_size Fun.id) ()
  in
  ignore ((Member.participant m).start ());
  let d = Daemon.create ~member:m () in
  let rid =
    match Member.node m with
    | Some node -> Engine.ring_id (Node.engine node)
    | None -> invalid_arg "Bench_hotpath: a member with an initial ring starts operational"
  in
  let p = Daemon.participant d in
  let seq = ref 0 in
  let feed envelope =
    incr seq;
    ignore
      (p.process
         (Message.Data
            { d_ring = rid; seq = !seq; pid = 1; d_round = 1; post_token = false;
              service = Types.Agreed; payload = envelope }));
    if !seq land 255 = 0 then
      ignore
        (p.process
           (Message.Token
              { t_ring = rid; token_id = !seq / 256 * ring_size; t_round = 1;
                t_seq = !seq; aru = !seq; aru_id = None; fcc = 0; rtr = [] }))
  in
  (m, d, rid, feed)

let drain_pending m =
  match Member.node m with
  | Some node -> ignore (Engine.drain_pending (Node.engine node))
  | None -> ()

(* Delivery of that envelope to a KV replica. Each call delivers and
   applies one put. *)
let deliver_put envelope =
  let m, d, _, feed = ring_daemon () in
  ignore (Kv.create ~cluster_size:ring_size ~daemon:d ());
  Daemon.flush d;
  drain_pending m;
  fun () -> feed envelope

(* Delivery of a replica's own put back to it: [Kv.put] writes its
   frame, a flush submits it, it is taken at once from the engine's
   pending queue, and it is delivered to the same replica, which
   applies the op it built.
   Only the delivery is counted, in [Gc.minor_words] windows around it
   (the put's own write is the one-pass figure): it allocates nothing
   large, so the minor heap sees all of it. *)
let own_put_deliver_alloc ~iters =
  let m, d, _, feed = ring_daemon () in
  let kv = Kv.create ~cluster_size:ring_size ~daemon:d () in
  Daemon.flush d;
  drain_pending m;
  let engine =
    match Member.node m with
    | Some node -> Node.engine node
    | None -> invalid_arg "Bench_hotpath: a member with an initial ring starts operational"
  in
  let value = String.make value_bytes 'v' in
  let window n =
    let words = ref 0. in
    for _ = 1 to n do
      Kv.put kv ~key:"k00001" ~value;
      Daemon.flush d;
      match Engine.drain_pending engine with
      | [ (_, frame) ] ->
          let before = Gc.minor_words () in
          feed frame;
          words := !words +. (Gc.minor_words () -. before)
      | _ -> invalid_arg "Bench_hotpath: a put submits one frame"
    done;
    !words
  in
  ignore (window 1_000);
  let words = window iters in
  if Kv.applied kv <> 1_000 + iters then
    invalid_arg "Bench_hotpath: an own put was not applied";
  words *. float_of_int (Sys.word_size / 8) /. float_of_int iters

(* The engine's receive window and delivery cursor alone: in-order data
   from pid 1 through [Engine.data] with [Fun.id] as the delivery
   constructor, and a caught-up token every 256 messages. The [n]
   messages are built up front, so a call counts what the engine
   allocates: the cell each delivery is consed onto, and the token
   visits amortized. *)
let engine_data ~n =
  let ring = Array.init ring_size Fun.id in
  let e = Engine.create ~params:Params.default ~ring_id:Types.{ rep = 0; ring_seq = 1 } ~ring ~me:0 in
  let rid = Engine.ring_id e in
  let msgs =
    Array.init n (fun i : Message.data ->
        { d_ring = rid; seq = i + 1; pid = 1; d_round = 1; post_token = false;
          service = Types.Agreed; payload = Bytes.empty })
  in
  let tokens =
    Array.init (n / 256 + 1) (fun i : Message.token ->
        { t_ring = rid; token_id = (i + 1) * ring_size; t_round = 1;
          t_seq = i * 256; aru = i * 256; aru_id = None; fcc = 0; rtr = [] })
  in
  let next = ref 0 in
  fun () ->
    let d = msgs.(!next) in
    incr next;
    ignore (Sys.opaque_identity (Engine.data e Fun.id d));
    if d.seq land 255 = 0 then ignore (Engine.token e (Engine.outputs e) tokens.(d.seq / 256))

(* An idle token visit: a caught-up token, nothing to send or deliver,
   through the daemon's participant (engine, node, member and daemon).
   The 88 B token each call builds is counted too. *)
let idle_token_visit () =
  let _, d, rid, _ = ring_daemon () in
  let p = Daemon.participant d in
  let token_id = ref 0 in
  fun () ->
    token_id := !token_id + ring_size;
    ignore
      (p.process
         (Message.Token
            { t_ring = rid; token_id = !token_id; t_round = 1; t_seq = 0; aru = 0;
              aru_id = None; fcc = 0; rtr = [] }))

(* A busy token visit through the same participant: [busy_sends] 64 B
   App envelopes (to a group no session joined) submitted, then a
   caught-up token that multicasts them all behind it and delivers them.
   The token it is handed is counted too, so a call less an idle visit
   is what the sends and their deliveries cost. *)
let busy_sends = 8

let busy_token_visit () =
  let m, d, rid, _ = ring_daemon () in
  drain_pending m;
  let p = Daemon.participant d in
  let payload =
    Envelope.encode
      (Envelope.App { sender = "#tx#1"; groups = [ "quiet" ]; payload = Bytes.make 64 'p' })
  in
  let token_id = ref 0 and sent = ref 0 in
  fun () ->
    for _ = 1 to busy_sends do p.submit Types.Agreed payload done;
    token_id := !token_id + ring_size;
    ignore
      (p.process
         (Message.Token
            { t_ring = rid; token_id = !token_id; t_round = 1; t_seq = !sent;
              aru = !sent; aru_id = None; fcc = 0; rtr = [] }));
    sent := !sent + busy_sends

(* Group changes at [join_members] members: a local session in the
   delivered table (so each change notifies it, and it never reads the
   member list), and per call one Join and one Leave of the same remote
   member, delivered through the daemon's participant. *)
let join_members = 1_000

let group_change () =
  let m, d, _, feed = ring_daemon () in
  let quiet =
    { Daemon.on_message = (fun ~sender:_ ~groups:_ _ _ -> ());
      on_group_view = (fun ~group:_ ~members:_ -> ()) }
  in
  let s = Daemon.connect d ~name:"rx" quiet in
  let join_of member = Envelope.encode (Envelope.Join { member; group = "big" }) in
  feed (join_of (Daemon.session_member_name d s));
  for i = 1 to join_members - 1 do
    feed (join_of (Envelope.member_name ~daemon:1 ~session:(Printf.sprintf "u%04d" i)))
  done;
  drain_pending m;
  let member = Envelope.member_name ~daemon:2 ~session:"x" in
  let join = join_of member in
  let leave = Envelope.encode (Envelope.Leave { member; group = "big" }) in
  fun () ->
    feed join;
    feed leave

(* A session in group "g"'s delivered table, slow or direct, on a
   daemon fed 64 B App envelopes to "g" from one sender: every feed
   hands the session the same frame. *)
let slow_app =
  Envelope.encode
    (Envelope.App { sender = "#tx#1"; groups = [ "g" ]; payload = Bytes.make 64 'p' })

let inbox_session ~slow =
  let m, d, _, feed = ring_daemon () in
  let quiet =
    { Daemon.on_message = (fun ~sender:_ ~groups:_ _ _ -> ());
      on_group_view = (fun ~group:_ ~members:_ -> ()) }
  in
  let s = Daemon.connect d ~name:"rx" quiet in
  let member = Daemon.session_member_name d s in
  feed (Envelope.encode (Envelope.Join { member; group = "g" }));
  drain_pending m;
  Daemon.set_slow_receiver d s slow;
  (d, s, fun () -> feed slow_app)

(* Park plus pump per message: a delivery to a slow session pumped at
   once, less the same delivery to a direct one. *)
let slow_inbox_alloc ~iters =
  let _, _, direct = inbox_session ~slow:false in
  let d, s, feed = inbox_session ~slow:true in
  let parked () =
    feed ();
    ignore (Daemon.pump d s ~max:1)
  in
  alloc_per_call ~iters parked -. alloc_per_call ~iters direct

(* What a parked message keeps alive beyond its frame: the words
   reachable from the session after [slow_parked] deliveries, less those
   before and the one frame they share, per message. Each parked copy
   charges the session its entry's size, here the whole frame, so
   [slow_parked] is as many as the daemon's inbox limit admits. *)
let slow_parked = Daemon.slow_inbox_limit_bytes / Bytes.length slow_app

let slow_inbox_retained () =
  let d, s, feed = inbox_session ~slow:true in
  let words () = Obj.reachable_words (Obj.repr s) in
  let before = words () in
  for _ = 1 to slow_parked do feed () done;
  if Daemon.inbox_depth d s <> slow_parked then
    invalid_arg "Bench_hotpath: the slow session did not park every delivery";
  let kept = words () - before - Obj.reachable_words (Obj.repr slow_app) in
  float_of_int (kept * (Sys.word_size / 8)) /. float_of_int slow_parked

let merge_rings = 4

(* One item per ring pushed into a learner merge, then drained. *)
let merge_push_drain () =
  let m = Merge.create ~rings:merge_rings in
  let items = Array.init merge_rings (fun r -> ref r) in
  let emit _ _ _ = () in
  fun () ->
    for ring = 0 to merge_rings - 1 do
      Merge.push_item m ~ring ~stamp:ring items.(ring)
    done;
    Merge.drain m emit

(* Host primitives. FNV-1a over a 64 KiB string, reported per KiB (the
   boxed result is the call's one allocation). The histogram uses
   bench/e2e's 1,850-bucket latency ladder, the deepest search in the
   tree. The float entry points get float constants, so no caller boxing
   is counted; the int-ns ones, which every per-op caller uses, get a
   value computed per call, as those callers do. *)
let fnv_kib = 64

let fnv_hash () =
  let s = String.init (fnv_kib * 1024) (fun i -> Char.chr (i land 255)) in
  fun () -> ignore (Fnv.string Fnv.offset s)

let prng_int () =
  let p = Prng.create ~seed:21L in
  fun () -> ignore (Prng.int p 1000)

let prng_exponential_int () =
  let p = Prng.create ~seed:21L in
  fun () -> ignore (Prng.exponential_int p ~mean:250_000.0)

(* A sample that changes per call, in ns. *)
let computed_ns i = (i * 7_919) land 0xF_FFFF

let ladder_buckets = 1_850

let histogram_observe () =
  let bounds = Metrics.exponential_bounds ~lo:0.1 ~factor:1.01 ~count:ladder_buckets in
  let h = Metrics.histogram ~bounds (Metrics.create ()) "bench.latency_us" in
  fun () -> Metrics.observe h 250.0

let histogram_observe_ns () =
  let bounds = Metrics.exponential_bounds ~lo:0.1 ~factor:1.01 ~count:ladder_buckets in
  let h = Metrics.histogram ~bounds (Metrics.create ()) "bench.latency_us" in
  let i = ref 0 in
  fun () ->
    incr i;
    Metrics.observe_ns h (computed_ns !i)

(* Minor-heap bytes per [Stats.add]: past 256 samples the sample array
   grows in the major heap, amortised over the samples it keeps, so the
   minor heap sees only what [add] itself allocates per call. *)
let stats_minor_bytes ~iters add =
  let st = Stats.create () in
  for i = 1 to 1_000 do add st i done;
  let before = Gc.minor_words () in
  for i = 1 to iters do add st i done;
  (Gc.minor_words () -. before) *. float_of_int (Sys.word_size / 8) /. float_of_int iters

let stats_add_minor_bytes ~iters = stats_minor_bytes ~iters (fun st _ -> Stats.add st 250.0)

let stats_add_ns_minor_bytes ~iters =
  stats_minor_bytes ~iters (fun st i -> Stats.add_ns st (computed_ns i))

let run ~quick =
  Printf.printf "=== Hot-path allocation benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  let iters = if quick then 20_000 else 200_000 in
  let rid : Types.ring_id = { rep = 0; ring_seq = 1 } in
  let data_msg =
    Message.Data
      {
        d_ring = rid;
        seq = 42;
        pid = 3;
        d_round = 7;
        post_token = false;
        service = Types.Agreed;
        payload = Bytes.create 1350;
      }
  in
  let token_msg =
    Message.Token
      {
        t_ring = rid;
        token_id = 17;
        t_round = 9;
        t_seq = 4096;
        aru = 4080;
        aru_id = Some 3;
        fcc = 55;
        rtr = [ 4081; 4085; 4090 ];
      }
  in
  (* Codec: the Buffer-based reference path (the pre-pool encoder, kept
     verbatim) vs the pooled scratch/cursor path, same messages. *)
  let pool = Message.Pool.create () in
  let data_frame = Message.encode data_msg in
  let token_frame = Message.encode token_msg in
  let enc_ref =
    alloc_per_call ~iters (fun () ->
        ignore (Message.encode data_msg);
        ignore (Message.encode token_msg))
  in
  let enc_pool =
    alloc_per_call ~iters (fun () ->
        ignore (Message.Pool.encode_view pool data_msg);
        ignore (Message.Pool.encode_view pool token_msg))
  in
  let dec_ref =
    alloc_per_call ~iters (fun () ->
        ignore (Message.decode data_frame);
        ignore (Message.decode token_frame))
  in
  let dec_pool =
    alloc_per_call ~iters (fun () ->
        ignore (Message.Pool.decode pool data_frame);
        ignore (Message.Pool.decode pool token_frame))
  in
  (* Per message-pair above; normalize to per message. *)
  let enc_ref = enc_ref /. 2. and enc_pool = enc_pool /. 2. in
  let dec_ref = dec_ref /. 2. and dec_pool = dec_pool /. 2. in
  let roundtrip_ref = enc_ref +. dec_ref in
  let roundtrip_pooled = enc_pool +. dec_pool in
  let codec_reduction =
    100. *. (1. -. (roundtrip_pooled /. roundtrip_ref))
  in
  Printf.printf
    "codec (bytes allocated per message, 1350B data + token):\n\
    \  encode   reference %8.1f   pooled %8.1f\n\
    \  decode   reference %8.1f   pooled %8.1f\n\
    \  roundtrip reduction %.1f%%\n%!"
    enc_ref enc_pool dec_ref dec_pool codec_reduction;
  (* App payload: the KV write path's bytes per put, at a 1 KB value. *)
  let value = String.make value_bytes 'v' in
  let app_encode = alloc_per_call ~iters (fun () -> ignore (put_envelope value)) in
  let app_deliver = alloc_per_call ~iters (deliver_put (put_envelope value)) in
  let app_own_deliver = own_put_deliver_alloc ~iters in
  Printf.printf
    "app payload (bytes allocated, %d B put):\n\
    \  one-pass write (op in its envelope) %8.1f per put\n\
    \  deliver to a KV replica %8.1f per message\n\
    \  own put delivered to its replica %8.1f per message\n%!"
    value_bytes app_encode app_deliver app_own_deliver;
  let engine_alloc = alloc_per_call ~iters (engine_data ~n:(iters + 1_000)) in
  Printf.printf "engine: in-order data %.1f bytes allocated per message\n%!"
    engine_alloc;
  let visit_alloc = alloc_per_call ~iters (idle_token_visit ()) in
  let busy_alloc = alloc_per_call ~iters (busy_token_visit ()) in
  let change_alloc = alloc_per_call ~iters (group_change ()) /. 2. in
  let inbox_alloc = slow_inbox_alloc ~iters in
  let inbox_retained = slow_inbox_retained () in
  Printf.printf
    "daemon (bytes allocated):\n\
    \  idle token visit %8.1f\n\
    \  token visit sending %d queued messages %8.1f\n\
    \  group change at %d members %8.1f per delivered Join or Leave\n\
    \  slow inbox park + pump %8.1f per message\n\
    \  slow inbox %.1f per message retained beyond its frame at %d parked\n%!"
    visit_alloc busy_sends busy_alloc join_members change_alloc inbox_alloc inbox_retained slow_parked;
  let merge_alloc =
    alloc_per_call ~iters (merge_push_drain ()) /. float_of_int merge_rings
  in
  Printf.printf "merge (%d rings): push + drain %.2f bytes allocated per item\n%!"
    merge_rings merge_alloc;
  let fnv_alloc = alloc_per_call ~iters:(iters / 100) (fnv_hash ()) /. float_of_int fnv_kib in
  let prng_alloc = alloc_per_call ~iters (prng_int ()) in
  let exp_alloc = alloc_per_call ~iters (prng_exponential_int ()) in
  let observe_alloc = alloc_per_call ~iters (histogram_observe ()) in
  let observe_ns_alloc = alloc_per_call ~iters (histogram_observe_ns ()) in
  let stats_alloc = stats_add_minor_bytes ~iters in
  let stats_ns_alloc = stats_add_ns_minor_bytes ~iters in
  Printf.printf
    "primitives (bytes allocated):\n\
    \  fnv-1a %8.2f per KiB hashed   prng int %8.2f per draw   prng exponential_int %8.2f per draw\n\
    \  histogram observe %8.2f   stats add %8.2f (float constant)\n\
    \  histogram observe_ns %8.2f   stats add_ns %8.2f (computed per call)\n%!"
    fnv_alloc prng_alloc exp_alloc observe_alloc stats_alloc observe_ns_alloc stats_ns_alloc;
  (* Pipeline: the paper's 10G library-tier Agreed workload, run once
     untraced to measure allocation and wall rate, once with the rotation
     profiler (whose trace sink itself allocates) for rotation latency. *)
  let pipeline_spec =
    {
      (Bench_paper.spec ~quick ~net:Profile.ten_gigabit ~tier:Profile.library
         ~protocol:`Accelerated ~service:Types.Agreed ~payload:1350
         ~rate:2000.)
      with
      label = "hotpath";
      warmup_ns = ms 50;
      measure_ns = (if quick then ms 100 else ms 250);
    }
  in
  (* A minor collection at each end, as in [alloc_per_call]: without
     them the figure moved by a few bytes per message with whatever
     the process allocated before the run. *)
  Gc.minor ();
  let cpu0 = Sys.time () in
  let before = Gc.allocated_bytes () in
  let r = Scenario.run pipeline_spec in
  let cpu_s = Sys.time () -. cpu0 in
  Gc.minor ();
  let after = Gc.allocated_bytes () in
  let deliveries = r.Scenario.deliveries in
  let alloc_per_msg =
    if deliveries = 0 then infinity
    else (after -. before) /. float_of_int deliveries
  in
  let msgs_per_sec =
    if cpu_s <= 0. then 0. else float_of_int deliveries /. cpu_s
  in
  let netsim_count = Metrics.counter_value r.Scenario.metrics in
  let events = netsim_count "netsim.events" in
  let events_per_msg =
    if deliveries = 0 then infinity
    else float_of_int events /. float_of_int deliveries
  in
  let pending_peak = netsim_count "netsim.events_pending_peak" in
  let prof = Rotation.create ~node:0 () in
  ignore (Trace.with_sink (Rotation.as_sink prof) (fun () -> Scenario.run pipeline_spec));
  let rot = (Rotation.summary prof).rotation_us in
  let rotation_p50, rotation_p99, rotation_p999 =
    (Stats.median rot, Stats.percentile rot 99.0, Stats.percentile rot 99.9)
  in
  Printf.printf
    "pipeline (10G library tier, Agreed, 1350B, %.0f Mbps offered):\n\
    \  deliveries %d  delivered %.1f Mbps  msgs/sec (host CPU) %.0f\n\
    \  allocated bytes per delivered message %.1f\n\
    \  rotation p50 %.1f us  p99 %.1f us\n\
    \  netsim events %d (%.2f per delivered message), peak pending %d\n%!"
    pipeline_spec.Scenario.offered_mbps deliveries r.Scenario.delivered_mbps
    msgs_per_sec alloc_per_msg rotation_p50 rotation_p99 events events_per_msg
    pending_peak;
  {
    Gate.fields =
      [
        ( "workload",
          Json.Obj
            [
              ("net", Json.String "10g");
              ("tier", Json.String "library");
              ("service", Json.String "agreed");
              ("payload_bytes", Json.Int 1350);
              ("offered_mbps", Json.Float pipeline_spec.Scenario.offered_mbps);
            ] );
        ( "pipeline",
          Json.Obj
            [
              ("deliveries", Json.Int deliveries);
              ("delivered_mbps", Json.Float r.Scenario.delivered_mbps);
              ("msgs_per_sec", Json.Float msgs_per_sec);
              ("alloc_bytes_per_msg", Json.Float alloc_per_msg);
              ("rotation_p50_us", Json.Float rotation_p50);
              ("rotation_p99_us", Json.Float rotation_p99);
              ("rotation_p999_us", Json.Float rotation_p999);
            ] );
        ( "netsim",
          Json.Obj
            [
              ("events", Json.Int events);
              ("events_per_delivered_msg", Json.Float events_per_msg);
              ("events_pending_peak", Json.Int pending_peak);
            ] );
        ( "codec",
          Json.Obj
            [
              ("iters", Json.Int iters);
              ("encode_ref_bytes_per_msg", Json.Float enc_ref);
              ("encode_pooled_bytes_per_msg", Json.Float enc_pool);
              ("decode_ref_bytes_per_msg", Json.Float dec_ref);
              ("decode_pooled_bytes_per_msg", Json.Float dec_pool);
              ("roundtrip_reduction_percent", Json.Float codec_reduction);
            ] );
        ( "app",
          Json.Obj
            [
              ("value_bytes", Json.Int value_bytes);
              ("encode_alloc_bytes_per_put", Json.Float app_encode);
              ("deliver_alloc_bytes_per_msg", Json.Float app_deliver);
              ("own_deliver_alloc_bytes_per_msg", Json.Float app_own_deliver);
            ] );
        ("engine", Json.Obj [ ("data_alloc_bytes_per_msg", Json.Float engine_alloc) ]);
        ( "daemon",
          Json.Obj
            [
              ("idle_token_visit_alloc_bytes", Json.Float visit_alloc);
              ("busy_token_visit_sends", Json.Int busy_sends);
              ("busy_token_visit_alloc_bytes", Json.Float busy_alloc);
              ("group_members", Json.Int join_members);
              ("group_change_alloc_bytes_per_delivery", Json.Float change_alloc);
              ("slow_inbox_alloc_bytes_per_msg", Json.Float inbox_alloc);
              ("slow_inbox_parked", Json.Int slow_parked);
              ("slow_inbox_retained_bytes_per_msg", Json.Float inbox_retained);
            ] );
        ( "merge",
          Json.Obj
            [
              ("rings", Json.Int merge_rings);
              ("push_drain_alloc_bytes_per_item", Json.Float merge_alloc);
            ] );
        ( "primitives",
          Json.Obj
            [
              ("fnv_input_kib", Json.Int fnv_kib);
              ("fnv_alloc_bytes_per_kib", Json.Float fnv_alloc);
              ("prng_int_alloc_bytes_per_draw", Json.Float prng_alloc);
              ("prng_exponential_int_alloc_bytes_per_draw", Json.Float exp_alloc);
              ("histogram_buckets", Json.Int ladder_buckets);
              ("histogram_observe_alloc_bytes", Json.Float observe_alloc);
              ("stats_add_alloc_bytes", Json.Float stats_alloc);
              ("histogram_observe_ns_alloc_bytes", Json.Float observe_ns_alloc);
              ("stats_add_ns_alloc_bytes", Json.Float stats_ns_alloc);
            ] );
      ];
    checks =
      [
        Max ("max_pipeline_alloc_bytes_per_msg", alloc_per_msg);
        Max ("max_netsim_events_per_msg", events_per_msg);
        Max ("max_netsim_events_pending_peak", float_of_int pending_peak);
        Min ("min_codec_reduction_percent", codec_reduction);
        Max ("max_app_encode_alloc_bytes_per_put", app_encode);
        Max ("max_app_deliver_alloc_bytes_per_msg", app_deliver);
        Max ("max_app_own_deliver_alloc_bytes_per_msg", app_own_deliver);
        Max ("max_engine_data_alloc_bytes_per_msg", engine_alloc);
        Max ("max_idle_token_visit_alloc_bytes", visit_alloc);
        Max ("max_busy_token_visit_alloc_bytes", busy_alloc);
        Max ("max_group_change_alloc_bytes_per_delivery", change_alloc);
        Max ("max_slow_inbox_alloc_bytes_per_msg", inbox_alloc);
        Max ("max_slow_inbox_retained_bytes_per_msg", inbox_retained);
        Max ("max_merge_push_drain_alloc_bytes_per_item", merge_alloc);
        Max ("max_fnv_alloc_bytes_per_kib", fnv_alloc);
        Max ("max_prng_int_alloc_bytes_per_draw", prng_alloc);
        Max ("max_histogram_observe_alloc_bytes", observe_alloc);
        Max ("max_stats_add_alloc_bytes", stats_alloc);
        Max ("max_prng_exponential_int_alloc_bytes_per_draw", exp_alloc);
        Max ("max_histogram_observe_ns_alloc_bytes", observe_ns_alloc);
        Max ("max_stats_add_ns_alloc_bytes", stats_ns_alloc);
      ];
    echo = [];
    conditions = [];
  }
