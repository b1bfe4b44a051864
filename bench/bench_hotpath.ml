(* Hot-path allocation benchmark (`-- hotpath [quick]`): allocated bytes
   per message of the pooled codec against the Buffer-based reference
   encoder, and allocation and host rate of the full simulated pipeline.
   Gated by bench/hotpath_budget.json. Schema documented in
   EXPERIMENTS.md. *)

open Aring_wire
open Aring_sim
open Aring_harness
module Json = Aring_obs.Json
module Stats = Aring_util.Stats

let ms n = n * 1_000_000

(* Allocated bytes per call of [f], measured with [Gc.allocated_bytes]
   (precise: counts minor allocations, independent of GC timing). *)
let alloc_per_call ~iters f =
  for _ = 1 to 1_000 do f () done;
  let before = Gc.allocated_bytes () in
  for _ = 1 to iters do f () done;
  let after = Gc.allocated_bytes () in
  (after -. before) /. float_of_int iters

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
  let cpu0 = Sys.time () in
  let before = Gc.allocated_bytes () in
  let r = Scenario.run pipeline_spec in
  let after = Gc.allocated_bytes () in
  let cpu_s = Sys.time () -. cpu0 in
  let deliveries = r.Scenario.deliveries in
  let alloc_per_msg =
    if deliveries = 0 then infinity
    else (after -. before) /. float_of_int deliveries
  in
  let msgs_per_sec =
    if cpu_s <= 0. then 0. else float_of_int deliveries /. cpu_s
  in
  let rot = Scenario.run { pipeline_spec with profile_rotation = true } in
  let rotation_p50, rotation_p99, rotation_p999 =
    match rot.Scenario.rotation with
    | Some prof ->
        ( Stats.median prof.Aring_obs.Rotation.rotation_us,
          Stats.percentile prof.Aring_obs.Rotation.rotation_us 99.0,
          Stats.percentile prof.Aring_obs.Rotation.rotation_us 99.9 )
    | None -> (0., 0., 0.)
  in
  Printf.printf
    "pipeline (10G library tier, Agreed, 1350B, %.0f Mbps offered):\n\
    \  deliveries %d  delivered %.1f Mbps  msgs/sec (host CPU) %.0f\n\
    \  allocated bytes per delivered message %.1f\n\
    \  rotation p50 %.1f us  p99 %.1f us\n%!"
    pipeline_spec.Scenario.offered_mbps deliveries r.Scenario.delivered_mbps
    msgs_per_sec alloc_per_msg rotation_p50 rotation_p99;
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
      ];
    checks =
      [
        Max ("max_pipeline_alloc_bytes_per_msg", alloc_per_msg);
        Min ("min_codec_reduction_percent", codec_reduction);
      ];
    echo = [];
    conditions = [];
  }
