(* Observability stack tests: metrics registry, histograms and merging,
   trace sinks on the Flight record stream, the JSONL round-trip, the
   Chrome exporter against a golden file, the rotation profiler, and the
   trace-driven invariant checker — unit-tested on synthetic records and
   integration-tested on clean, lossy and crashing simulated clusters. *)

open Aring_wire
open Aring_ring
open Aring_sim
module Trace = Aring_obs.Trace
module Flight = Aring_obs.Flight
module Chrome_trace = Aring_obs.Chrome_trace
module Metrics = Aring_obs.Metrics
module Checker = Aring_obs.Checker
module Rotation = Aring_obs.Rotation

let check = Alcotest.check
let ms n = n * 1_000_000
let rid : Types.ring_id = { rep = 0; ring_seq = 1 }

let ev ?(a = 0) ?(b = 0) ?(c = 0) ?(d = 0) ?(e = 0) ?(f = 0) ?(g = 0) ?(h = 0)
    ?(i = 0) ns node code : Flight.event =
  { ns; node; code; a; b; c; d; e; f; g; h; i }

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec scan i = i + nl <= tl && (String.sub text i nl = needle || scan (i + 1)) in
  scan 0

(* -------------------------------------------------------------------- *)
(* Metrics registry                                                      *)

let test_counters_and_gauges () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "engine.rounds" in
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "counter value" 5 (Metrics.value c);
  check Alcotest.int "by name" 5 (Metrics.counter_value reg "engine.rounds");
  check Alcotest.int "absent counter reads 0" 0
    (Metrics.counter_value reg "no.such");
  (* Same name returns the same handle. *)
  Metrics.incr (Metrics.counter reg "engine.rounds");
  check Alcotest.int "shared handle" 6 (Metrics.value c);
  let g = Metrics.gauge reg "queue.depth" in
  Metrics.set g 3.5;
  check (Alcotest.float 1e-9) "gauge" 3.5 (Metrics.gauge_value g);
  check
    Alcotest.(list (pair string int))
    "counters sorted"
    [ ("engine.rounds", 6) ]
    (Metrics.counters reg)

let test_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 1.0; 10.0; 100.0 |] reg "lat" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 5.0; 50.0; 1000.0 ];
  check Alcotest.int "count" 5 (Metrics.hist_count h);
  check (Alcotest.float 1e-6) "sum" 1060.5 (Metrics.hist_sum h);
  check
    Alcotest.(array int)
    "bucket counts (overflow last)" [| 1; 2; 1; 1 |]
    (Metrics.hist_bucket_counts h);
  (* Median lands in the (1,10] bucket. *)
  let q50 = Metrics.hist_quantile h 0.5 in
  Alcotest.(check bool) "q50 within bucket" true (q50 > 1.0 && q50 <= 10.0);
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan
       (Metrics.hist_quantile (Metrics.histogram reg "empty") 0.5))

let test_histogram_merge () =
  let ra = Metrics.create () and rb = Metrics.create () in
  let bounds = [| 1.0; 10.0 |] in
  let ha = Metrics.histogram ~bounds ra "lat" in
  let hb = Metrics.histogram ~bounds rb "lat" in
  List.iter (Metrics.observe ha) [ 0.5; 2.0 ];
  List.iter (Metrics.observe hb) [ 5.0; 50.0 ];
  let m = Metrics.hist_merge ha hb in
  check Alcotest.int "merged count" 4 (Metrics.hist_count m);
  check
    Alcotest.(array int)
    "merged buckets" [| 1; 2; 1 |]
    (Metrics.hist_bucket_counts m);
  check (Alcotest.float 1e-6) "merged sum" 57.5 (Metrics.hist_sum m);
  (* Differing bounds refuse to merge. *)
  let hc = Metrics.histogram ~bounds:[| 2.0; 20.0 |] (Metrics.create ()) "x" in
  Alcotest.check_raises "bounds mismatch"
    (Invalid_argument "Metrics.hist_merge: incompatible bucket bounds")
    (fun () -> ignore (Metrics.hist_merge ha hc))

let test_registry_merge () =
  let ra = Metrics.create () and rb = Metrics.create () in
  Metrics.add (Metrics.counter ra "n") 2;
  Metrics.add (Metrics.counter rb "n") 3;
  Metrics.add (Metrics.counter rb "only_b") 7;
  Metrics.set (Metrics.gauge ra "g") 1.0;
  Metrics.set (Metrics.gauge rb "g") 9.0;
  Metrics.observe (Metrics.histogram ~bounds:[| 1.0 |] ra "h") 0.5;
  Metrics.observe (Metrics.histogram ~bounds:[| 1.0 |] rb "h") 2.0;
  let m = Metrics.merge ra rb in
  check Alcotest.int "counters sum" 5 (Metrics.counter_value m "n");
  check Alcotest.int "disjoint counter kept" 7 (Metrics.counter_value m "only_b");
  check (Alcotest.float 1e-9) "gauge later-wins" 9.0
    (Metrics.gauge_value (Metrics.gauge m "g"));
  check Alcotest.int "histograms merge" 2
    (Metrics.hist_count (Metrics.histogram m "h"))

(* -------------------------------------------------------------------- *)
(* Trace sinks                                                           *)

let test_sinks () =
  let got = ref [] in
  let sink = Trace.fn_sink (fun ev -> got := ev :: !got) in
  let t0 = Flight.now () in
  Trace.with_sink sink (fun () ->
      Flight.record ~node:0 ~code:Flight.ev_token_lost ~a:4 ~b:0 ~c:0 ~d:0;
      Flight.record_at ~ns:7 ~node:1 ~code:Flight.ev_crash ~a:0 ~b:0 ~c:0 ~d:0
        ~e:0 ~f:0 ~g:0 ~h:0 ~i:0);
  Flight.record ~node:0 ~code:Flight.ev_crash ~a:0 ~b:0 ~c:0 ~d:0;
  Flight.reset ();
  check Alcotest.bool "the sink saw both records, and nothing after with_sink"
    true
    (List.rev !got
    = [ ev t0 0 Flight.ev_token_lost ~a:4; ev 7 1 Flight.ev_crash ])

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))


(* dune runtest runs in the sandboxed test dir; dune exec from the root. *)
let golden path =
  let p = Filename.concat "golden" path in
  if Sys.file_exists p then p else Filename.concat "test/golden" path

let test_jsonl_roundtrip () =
  let events = Flight.read_file (golden "events.jsonl") in
  check Alcotest.int "golden event count" 16 (List.length events);
  let lines =
    String.split_on_char '\n' (String.trim (read_whole (golden "events.jsonl")))
  in
  List.iter2
    (fun e line ->
      check Alcotest.string "written as the golden line" line (Flight.to_line e);
      check Alcotest.bool
        (Printf.sprintf "round-trip %s" (Flight.code_name e.Flight.code))
        true
        (Flight.of_line (Flight.to_line e) = e))
    events lines

let test_chrome_golden () =
  let events = Flight.read_file (golden "events.jsonl") in
  let expected = String.trim (read_whole (golden "chrome_trace.json")) in
  check Alcotest.string "chrome exporter output" expected
    (Chrome_trace.to_string events)

(* -------------------------------------------------------------------- *)
(* Invariant checker on synthetic traces                                 *)

let token_recv ?(ring = rid) ~id ~aru ns node =
  ev ns node Flight.ev_token_recv ~a:id ~b:aru ~c:aru ~d:aru
    ~e:(Flight.pack_ring ring) ~f:1

let deliver ?(ring = rid) ~seq ~sender ns node =
  ev ns node Flight.ev_app_deliver ~a:seq ~b:sender
    ~c:(Message.service_tag Types.Agreed) ~e:(Flight.pack_ring ring)

let view ~transitional ring ns node =
  ev ns node Flight.ev_view_install ~a:(Bool.to_int transitional) ~b:1
    ~e:(Flight.pack_ring ring)

let violations evs = List.length (Checker.check_events evs)

let test_checker_clean () =
  check Alcotest.int "clean trace" 0
    (violations
       [
         token_recv ~id:0 ~aru:0 1 0;
         token_recv ~id:1 ~aru:1 2 1;
         deliver ~seq:1 ~sender:0 3 0;
         deliver ~seq:2 ~sender:1 4 0;
         deliver ~seq:1 ~sender:0 5 1;
         deliver ~seq:2 ~sender:1 6 1;
       ])

let test_checker_two_holders () =
  check Alcotest.int "duplicate token holder flagged" 1
    (violations
       [
         token_recv ~id:7 ~aru:0 1 0;
         token_recv ~id:7 ~aru:0 2 3;
       ])

let test_checker_order_mismatch () =
  check Alcotest.int "diverging sender flagged" 1
    (violations
       [
         deliver ~seq:1 ~sender:0 1 0;
         deliver ~seq:1 ~sender:5 2 1;
       ])

let test_checker_gap () =
  (* A skip while operational is a violation... *)
  check Alcotest.int "gap flagged" 1
    (violations [ deliver ~seq:1 ~sender:0 1 0; deliver ~seq:3 ~sender:0 2 0 ]);
  (* ...but legal inside a transitional->regular recovery window. *)
  check Alcotest.int "gap allowed during recovery" 0
    (violations
       [
         deliver ~seq:1 ~sender:0 1 0;
         view ~transitional:true rid 2 0;
         deliver ~seq:3 ~sender:0 3 0;
         view ~transitional:false { rep = 0; ring_seq = 2 } 4 0;
       ]);
  (* Repeated delivery is never legal. *)
  check Alcotest.int "regressing delivery flagged" 1
    (violations [ deliver ~seq:1 ~sender:0 1 0; deliver ~seq:1 ~sender:0 2 0 ])

let test_checker_aru_monotonic () =
  check Alcotest.int "aru regression flagged" 1
    (violations
       [ token_recv ~id:0 ~aru:5 1 0; token_recv ~id:2 ~aru:3 2 0 ])

(* -------------------------------------------------------------------- *)
(* Integration: checker + profiler attached to simulated clusters        *)

(* Steady-state ring of bare nodes (installed configuration, no
   membership), as in Scenario.run. *)
let run_node_cluster ~n ~net ~seed ~horizon_ms ~rate_per_node =
  let ring = Array.init n (fun i -> i) in
  let nodes =
    Array.init n (fun me ->
        Node.create ~params:Params.default ~ring_id:rid ~ring ~me)
  in
  let sim =
    Netsim.create ~net
      ~tiers:(Array.make n Profile.library)
      ~participants:(Array.map Node.participant nodes)
      ~seed ()
  in
  let deliveries = ref 0 in
  Netsim.on_deliver sim (fun ~at:_ ~now:_ _ -> incr deliveries);
  let interval = 1_000_000_000 / rate_per_node in
  for node = 0 to n - 1 do
    let rec tick () =
      let now = Netsim.now sim in
      if now < ms horizon_ms then begin
        Netsim.submit_now sim ~node Types.Agreed (Bytes.create 256);
        Netsim.call_at sim ~at:(now + interval) tick
      end
    in
    Netsim.call_at sim ~at:(node * 50_000) tick
  done;
  Netsim.run_until sim (ms horizon_ms);
  !deliveries

let test_sim_invariants_clean () =
  let checker = Checker.create () in
  let delivered =
    Trace.with_sink (Checker.as_sink checker) (fun () ->
        run_node_cluster ~n:8 ~net:Profile.gigabit ~seed:11L ~horizon_ms:80
          ~rate_per_node:2_000)
  in
  Alcotest.(check bool) "plenty delivered" true (delivered > 1_000);
  check Alcotest.int "checked every delivery" delivered
    (Checker.deliveries_checked checker);
  check Alcotest.int "no violations (clean)" 0 (Checker.violation_count checker)

let test_sim_invariants_lossy () =
  let checker = Checker.create () in
  let delivered =
    Trace.with_sink (Checker.as_sink checker) (fun () ->
        run_node_cluster ~n:8
          ~net:(Profile.with_loss Profile.gigabit 0.01)
          ~seed:12L ~horizon_ms:80 ~rate_per_node:2_000)
  in
  Alcotest.(check bool) "plenty delivered under loss" true (delivered > 1_000);
  check Alcotest.int "no violations (1% loss)" 0 (Checker.violation_count checker)

let test_sim_invariants_crash () =
  (* Member-based cluster: crash one node mid-run and let the ring
     reform; recovery deliveries must still satisfy every invariant. *)
  let params = Params.snappy in
  let n = 8 in
  let initial_ring = Array.init n (fun i -> i) in
  let members =
    Array.init n (fun me -> Member.create ~params ~me ~initial_ring ())
  in
  let checker = Checker.create () in
  Trace.with_sink (Checker.as_sink checker) (fun () ->
      let sim =
        Netsim.create ~net:Profile.gigabit
          ~tiers:(Array.make n Profile.library)
          ~participants:(Array.map Member.participant members)
          ~seed:13L ()
      in
      for node = 0 to n - 1 do
        let rec tick () =
          let now = Netsim.now sim in
          if now < ms 500 && Netsim.is_alive sim node then begin
            Netsim.submit_now sim ~node Types.Agreed (Bytes.create 200);
            Netsim.call_at sim ~at:(now + 1_000_000) tick
          end
        in
        Netsim.call_at sim ~at:(node * 100_000) tick
      done;
      Netsim.call_at sim ~at:(ms 100) (fun () -> Netsim.crash sim 3);
      Netsim.run_until sim (ms 800);
      let survivors = List.filter (fun i -> i <> 3) (List.init n Fun.id) in
      List.iter
        (fun i ->
          check Alcotest.string
            (Printf.sprintf "node %d reformed" i)
            "operational"
            (Member.state_name members.(i)))
        survivors);
  Alcotest.(check bool) "deliveries checked" true
    (Checker.deliveries_checked checker > 100);
  (match Checker.violations checker with
  | [] -> ()
  | v :: _ -> Alcotest.failf "first violation: %s" v);
  check Alcotest.int "no violations (crash + reformation)" 0
    (Checker.violation_count checker)

let test_rotation_profiler () =
  let prof = Rotation.create ~node:0 () in
  let delivered =
    Trace.with_sink (Rotation.as_sink prof) (fun () ->
        run_node_cluster ~n:4 ~net:Profile.gigabit ~seed:14L ~horizon_ms:50
          ~rate_per_node:2_000)
  in
  Alcotest.(check bool) "delivered" true (delivered > 0);
  let s = Rotation.summary prof in
  Alcotest.(check bool) "observed rotations" true (s.Rotation.rotations > 10);
  Alcotest.(check bool) "positive rotation time" true
    (Aring_util.Stats.mean s.Rotation.rotation_us > 0.0);
  Alcotest.(check bool) "post-token fraction in [0,1]" true
    (s.Rotation.post_token_fraction >= 0.0 && s.Rotation.post_token_fraction <= 1.0)

(* -------------------------------------------------------------------- *)
(* Histogram merge edge cases                                            *)

let test_hist_merge_edge_cases () =
  (* Empty + empty: still a valid histogram. *)
  let bounds = [| 1.0 |] in
  let ea = Metrics.histogram ~bounds (Metrics.create ()) "e" in
  let eb = Metrics.histogram ~bounds (Metrics.create ()) "e" in
  let m = Metrics.hist_merge ea eb in
  check Alcotest.int "empty merge count" 0 (Metrics.hist_count m);
  Alcotest.(check bool) "empty merge quantile is nan" true
    (Float.is_nan (Metrics.hist_quantile m 0.5));
  (* Single-bucket bounds: one bound, two buckets (the overflow). *)
  let sa = Metrics.histogram ~bounds (Metrics.create ()) "s" in
  Metrics.observe sa 0.5;
  Metrics.observe sa 2.0;
  let m = Metrics.hist_merge sa ea in
  check
    Alcotest.(array int)
    "single-bucket merge" [| 1; 1 |]
    (Metrics.hist_bucket_counts m);
  (* Empty merged into populated keeps the population. *)
  check Alcotest.int "asymmetric merge count" 2 (Metrics.hist_count m)

(* Counts saturate at [max_int] instead of wrapping negative: doubling a
   one-observation histogram 70 times would overflow a 63-bit count. *)
let test_hist_merge_saturates () =
  let h = Metrics.histogram ~bounds:[| 1.0 |] (Metrics.create ()) "h" in
  Metrics.observe h 0.5;
  let m = ref (Metrics.hist_merge h h) in
  for _ = 1 to 70 do
    m := Metrics.hist_merge !m !m
  done;
  check Alcotest.int "count saturates at max_int" max_int
    (Metrics.hist_count !m);
  check Alcotest.int "bucket saturates at max_int" max_int
    (Metrics.hist_bucket_counts !m).(0);
  Alcotest.(check bool) "saturated count never negative" true
    (Metrics.hist_count !m > 0)

let prop_hist_merge_counts =
  QCheck.Test.make ~count:200 ~name:"hist merge adds counts per bucket"
    QCheck.(pair (small_list (float_range 0.0 200.0)) (small_list (float_range 0.0 200.0)))
    (fun (xs, ys) ->
      let bounds = [| 1.0; 10.0; 100.0 |] in
      let ha = Metrics.histogram ~bounds (Metrics.create ()) "a" in
      let hb = Metrics.histogram ~bounds (Metrics.create ()) "b" in
      List.iter (Metrics.observe ha) xs;
      List.iter (Metrics.observe hb) ys;
      let m = Metrics.hist_merge ha hb in
      Metrics.hist_count m = List.length xs + List.length ys
      && Metrics.hist_bucket_counts m
         = Array.map2 ( + )
             (Metrics.hist_bucket_counts ha)
             (Metrics.hist_bucket_counts hb))

(* Test-only copy of the histogram as it was before its sum moved into
   an unboxed cell and its search into a top-level function: sum, mean,
   quantiles and bucket counts must stay bit-identical. *)
module Ref_hist = struct
  type t = { bounds : float array; counts : int array; mutable sum : float; mutable count : int }

  let create bounds =
    { bounds; counts = Array.make (Array.length bounds + 1) 0; sum = 0.0; count = 0 }

  let bucket_index bounds v =
    let n = Array.length bounds in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if v <= bounds.(mid) then go lo mid else go (mid + 1) hi
    in
    go 0 n

  let observe h v =
    let i = bucket_index h.bounds v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum <- h.sum +. v;
    h.count <- h.count + 1

  let mean h = if h.count = 0 then nan else h.sum /. float_of_int h.count

  let quantile h q =
    if h.count = 0 then nan
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target = q *. float_of_int h.count in
      let n = Array.length h.counts in
      let rec go i cum =
        if i >= n then h.bounds.(Array.length h.bounds - 1)
        else
          let cum' = cum +. float_of_int h.counts.(i) in
          if cum' >= target && h.counts.(i) > 0 then begin
            let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
            let hi =
              if i < Array.length h.bounds then h.bounds.(i)
              else h.bounds.(Array.length h.bounds - 1) *. 2.0
            in
            let frac = (target -. cum) /. float_of_int h.counts.(i) in
            lo +. (frac *. (hi -. lo))
          end
          else go (i + 1) cum'
      in
      go 0 0.0
    end
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The span collector's default ladder and bench/e2e's 1,850-bucket one. *)
let ladders =
  [| Metrics.default_bounds; Metrics.exponential_bounds ~lo:0.1 ~factor:1.01 ~count:1_850 |]

let prop_hist_matches_reference =
  QCheck.Test.make ~count:300 ~name:"histogram sum, mean and quantiles equal the boxed copy's"
    QCheck.(pair bool (list_of_size Gen.(0 -- 300) (float_range (-10.0) 2e7)))
    (fun (fine, xs) ->
      let bounds = ladders.(if fine then 1 else 0) in
      let h = Metrics.histogram ~bounds (Metrics.create ()) "h" in
      let r = Ref_hist.create bounds in
      List.iter (Metrics.observe h) xs;
      List.iter (Ref_hist.observe r) xs;
      Metrics.hist_count h = r.Ref_hist.count
      && Metrics.hist_bucket_counts h = r.Ref_hist.counts
      && same_bits (Metrics.hist_sum h) r.Ref_hist.sum
      && same_bits (Metrics.hist_mean h) (Ref_hist.mean r)
      && List.for_all
           (fun q -> same_bits (Metrics.hist_quantile h q) (Ref_hist.quantile r q))
           [ 0.0; 0.1; 0.5; 0.9; 0.99; 0.999; 1.0 ])

let test_observe_allocation () =
  (* The only words left are the caller's boxing of the sample (2);
     the boxed sum and the search closure cost 18 words per observe on
     the default ladder and 31 on the fine one. *)
  Array.iter
    (fun bounds ->
      let h = Metrics.histogram ~bounds (Metrics.create ()) "h" in
      let n = 100_000 in
      let i = ref 0 in
      let sample () =
        incr i;
        Metrics.observe h (float_of_int (!i land 0xFFFF))
      in
      for _ = 1 to 1_000 do
        sample ()
      done;
      let before = Gc.minor_words () in
      for _ = 1 to n do
        sample ()
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int n in
      check Alcotest.bool
        (Printf.sprintf "%.2f words per observe (%d buckets) <= 2" words (Array.length bounds))
        true (words <= 2.0))
    ladders

(* -------------------------------------------------------------------- *)
(* Chrome exporter JSON escaping                                         *)

module Json = Aring_obs.Json

(* Ring ids at the bounds of Flight.pack_ring. *)
let ring_hi : Types.ring_id = { rep = (1 lsl 30) - 1; ring_seq = (1 lsl 31) - 1 }
let ring_lo : Types.ring_id = { rep = -(1 lsl 30); ring_seq = -(1 lsl 31) }

(* Every code, and codes no layout knows, with extreme arguments (enum
   values out of range, the ring bounds) render as valid JSON. *)
let test_chrome_every_code_parses () =
  let events =
    List.concat_map
      (fun code ->
        [
          ev (code * 1_000) 0 code ~a:max_int ~b:(-1) ~c:min_int ~d:7
            ~e:(Flight.pack_ring ring_hi) ~f:max_int ~h:(-5);
          ev ((code * 1_000) + 1) 1 code ~a:(-1) ~b:max_int ~c:99
            ~e:(Flight.pack_ring ring_lo);
        ])
      (List.init 27 Fun.id)
  in
  let s = Chrome_trace.to_string events in
  match Json.of_string s with
  | exception Json.Parse_error e ->
      Alcotest.failf "chrome output unparseable: %s" e
  | j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List l) ->
          Alcotest.(check bool) "events survived" true (List.length l >= 20)
      | _ -> Alcotest.fail "no traceEvents list")

let prop_json_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json string escape round-trips"
    QCheck.(string_gen (Gen.char_range '\x00' '\x7f'))
    (fun s ->
      match Json.of_string (Json.to_string (Json.String s)) with
      | Json.String s' -> s' = s
      | _ -> false)

(* -------------------------------------------------------------------- *)
(* Flight recorder                                                       *)

let with_virtual_clock f =
  let t = ref 0 in
  Flight.set_clock (fun () -> !t);
  Fun.protect ~finally:(fun () -> Flight.set_clock (fun () -> 0)) (fun () -> f t)

let test_flight_wrap_and_dump () =
  with_virtual_clock (fun t ->
      Flight.set_capacity 4;
      Fun.protect
        ~finally:(fun () -> Flight.set_capacity 512)
        (fun () ->
          for i = 1 to 10 do
            t := i * 100;
            Flight.record ~node:0 ~code:Flight.ev_deliver ~a:i ~b:7 ~c:0 ~d:0
          done;
          t := 1_050;
          Flight.record ~node:1 ~code:Flight.ev_token_recv ~a:1 ~b:0 ~c:0 ~d:0;
          check Alcotest.int "lifetime total" 11 (Flight.total ());
          check Alcotest.int "stored capped at capacity" 5 (Flight.stored ());
          let rs = Flight.records () in
          check
            Alcotest.(list int)
            "newest records survive the wrap, time-ordered"
            [ 700; 800; 900; 1000; 1050 ]
            (List.map (fun (r : Flight.event) -> r.ns) rs);
          check
            Alcotest.(list int)
            "argument a preserved" [ 7; 8; 9; 10; 1 ]
            (List.map (fun (r : Flight.event) -> r.a) rs);
          (* The JSONL dump reads back as the records. *)
          let path = Filename.temp_file "flight" ".jsonl" in
          Flight.dump_jsonl_file path;
          let back = Flight.read_file path in
          Sys.remove path;
          check Alcotest.bool "the dump reads back as the stored records" true
            (back = rs);
          (* Disabled recording is a no-op. *)
          Flight.set_enabled false;
          Flight.record ~node:0 ~code:Flight.ev_deliver ~a:99 ~b:0 ~c:0 ~d:0;
          Flight.set_enabled true;
          check Alcotest.int "disabled record dropped" 11 (Flight.total ());
          Flight.reset ();
          check Alcotest.int "reset empties" 0 (Flight.stored ())))

(* -------------------------------------------------------------------- *)
(* Latency spans                                                         *)

module Span = Aring_obs.Span

(* The instruments' one feed is Flight.record; these helpers emit the
   records the protocol stack emits at each step (layouts in flight.mli). *)
let record ~node code ~a ~b ~d = Flight.record ~node ~code ~a ~b ~c:0 ~d

let test_span_stages () =
  with_virtual_clock (fun t ->
      check Alcotest.int "stamp is 0 when detached" 0 (Span.submit_stamp ());
      let reg = Metrics.create () in
      let span = Span.create ~metrics:reg () in
      Span.with_span span (fun () ->
          t := 1_000;
          let stamp = Span.submit_stamp () in
          check Alcotest.int "stamp reads the virtual clock" 1_000 stamp;
          t := 51_000;
          record ~node:0 Flight.ev_data_send ~a:5 ~b:0 ~d:stamp;
          t := 101_000;
          record ~node:0 Flight.ev_deliver ~a:5 ~b:0 ~d:0;
          record ~node:0 Flight.ev_apply ~a:1 ~b:0 ~d:0);
      let stages = Span.report span in
      let find name =
        List.find_opt (fun (s : Span.stage_report) -> s.Span.stage = name) stages
      in
      (match find Span.stage_order with
      | Some s ->
          check Alcotest.int "order count" 1 s.Span.count;
          Alcotest.(check bool) "order p50 ~50us" true
            (s.Span.p50_us > 10. && s.Span.p50_us < 100.)
      | None -> Alcotest.fail "order stage missing");
      (match find Span.stage_e2e with
      | Some s ->
          Alcotest.(check bool) "e2e p50 ~100us" true
            (s.Span.p50_us > 50. && s.Span.p50_us < 250.)
      | None -> Alcotest.fail "e2e stage missing");
      (* Unknown (sender, seq) pairs are ignored, not counted. *)
      Span.with_span span (fun () ->
          record ~node:0 Flight.ev_deliver ~a:999 ~b:3 ~d:0);
      let stages' = Span.report span in
      let e2e_count =
        match
          List.find_opt (fun (s : Span.stage_report) -> s.Span.stage = Span.stage_e2e) stages'
        with
        | Some s -> s.Span.count
        | None -> 0
      in
      check Alcotest.int "unmatched delivery not counted" 1 e2e_count)

(* Collectors nest: an enclosing collector keeps counting through an
   inner window and is active again after it, and with none active the
   stamp is 0 again. *)
let test_span_collectors_nest () =
  with_virtual_clock (fun t ->
      let order_count span =
        match
          List.find_opt
            (fun (s : Span.stage_report) -> s.Span.stage = Span.stage_order)
            (Span.report span)
        with
        | Some s -> s.Span.count
        | None -> 0
      in
      let send seq =
        t := seq * 1_000;
        let stamp = Span.submit_stamp () in
        check Alcotest.int "stamped while a collector is active" (seq * 1_000)
          stamp;
        t := (seq * 1_000) + 500;
        record ~node:0 Flight.ev_data_send ~a:seq ~b:0 ~d:stamp
      in
      let outer = Span.create () and inner = Span.create () in
      Span.with_span outer (fun () ->
          send 1;
          Span.with_span inner (fun () -> send 2);
          send 3);
      check Alcotest.int "outer collector saw every send" 3 (order_count outer);
      check Alcotest.int "inner collector saw its window" 1 (order_count inner);
      check Alcotest.int "stamp is 0 with none active" 0 (Span.submit_stamp ()))

(* -------------------------------------------------------------------- *)
(* Health watchdog                                                       *)

module Health = Aring_obs.Health

let phase node p = record ~node Flight.ev_phase ~a:p ~b:0 ~d:0
let flood node = record ~node Flight.ev_flood ~a:3 ~b:0 ~d:0
let delivery () = record ~node:0 Flight.ev_deliver ~a:1 ~b:0 ~d:0
let crash node = record ~node Flight.ev_crash ~a:0 ~b:0 ~d:0

let test_health_formation_cycle () =
  with_virtual_clock (fun t ->
      let h = Health.create ~n:2 () in
      Trace.with_sink (Health.as_sink h) (fun () ->
          (* Node 0 cycles gather -> commit -> recover without ever
             reaching operational; node 1 is healthy. The cycling must
             outlast [stall_ns] with no formation completing anywhere
             before the verdict fires. *)
          phase 1 Flight.phase_operational;
          for i = 1 to 8 do
            t := i * 200_000_000;
            phase 0 Flight.phase_gather;
            phase 0 Flight.phase_commit;
            phase 0 Flight.phase_recover;
            flood 0;
            delivery ()
          done;
          (match Health.check h ~now:!t with
          | [ Health.Formation_cycle { fc_node; fc_attempts; fc_floods } ] ->
              check Alcotest.int "stalled node" 0 fc_node;
              check Alcotest.int "attempts counted" 8 fc_attempts;
              check Alcotest.int "recovery messages counted" 24 fc_floods
          | other ->
              Alcotest.failf "expected one formation cycle, got %d stalls"
                (List.length other));
          (* A formation completing anywhere re-opens the grace window:
             attempt-burning while views keep installing is churn making
             progress, not a livelock. *)
          phase 1 Flight.phase_operational;
          check Alcotest.int "install elsewhere clears the verdict" 0
            (List.length (Health.check h ~now:!t))))

let test_health_operational_resets () =
  with_virtual_clock (fun t ->
      let h = Health.create ~n:1 () in
      Trace.with_sink (Health.as_sink h) (fun () ->
          for i = 1 to 7 do
            t := i * 200_000_000;
            phase 0 Flight.phase_gather;
            phase 0 Flight.phase_recover
          done;
          (* Reaching operational resets the attempt counter... *)
          phase 0 Flight.phase_operational;
          delivery ();
          phase 0 Flight.phase_gather;
          check Alcotest.int "no stall after operational" 0
            (List.length (Health.check h ~now:!t));
          (* ...so the next cycle needs K fresh attempts. *)
          for i = 8 to 14 do
            t := i * 200_000_000;
            phase 0 Flight.phase_gather
          done;
          check Alcotest.int "8 fresh attempts stall again" 1
            (List.length (Health.check h ~now:!t))))

let test_health_no_progress_and_crash () =
  with_virtual_clock (fun t ->
      let h = Health.create ~n:2 () in
      Trace.with_sink (Health.as_sink h) (fun () ->
          t := 1_000;
          delivery ();
          phase 0 Flight.phase_gather;
          phase 1 Flight.phase_gather;
          (* Two virtual seconds with no delivery and both nodes stuck. *)
          t := 2_000_000_000;
          (match Health.check h ~now:!t with
          | [ Health.No_progress { np_idle_ns; np_stuck } ] ->
              Alcotest.(check bool) "idle time reported" true
                (np_idle_ns > 1_000_000_000);
              check Alcotest.int "both nodes stuck" 2 (List.length np_stuck)
          | other ->
              Alcotest.failf "expected no_progress, got %d stalls"
                (List.length other));
          (* Crashed nodes are excluded; a crashed-only stall clears. *)
          crash 0;
          crash 1;
          check Alcotest.int "crashed nodes never stall" 0
            (List.length (Health.check h ~now:!t))))

let test_health_report_renders () =
  with_virtual_clock (fun t ->
      let h = Health.create ~n:1 () in
      Trace.with_sink (Health.as_sink h) (fun () ->
          for i = 1 to 8 do
            t := i * 200_000_000;
            phase 0 Flight.phase_gather;
            phase 0 Flight.phase_recover
          done);
      let r = Health.report h ~now:!t in
      let text = Format.asprintf "%a" Health.pp_report r in
      Alcotest.(check bool) "names the cycle" true
        (contains text "repeated gather cycling"))

(* A daemon's ev_session_cut is counted against its node, reported and
   printed; no other node's count moves. *)
let test_health_counts_session_cuts () =
  with_virtual_clock (fun t ->
      let h = Health.create ~n:3 () in
      Trace.with_sink (Health.as_sink h) (fun () ->
          t := 1_000;
          record ~node:1 Flight.ev_session_cut ~a:1_012 ~b:262_000 ~d:0;
          record ~node:1 Flight.ev_session_cut ~a:998 ~b:261_500 ~d:0);
      let r = Health.report h ~now:!t in
      check
        Alcotest.(list int)
        "cuts per node" [ 0; 2; 0 ]
        (List.map (fun (nr : Health.node_report) -> nr.nr_session_cuts) r.r_nodes);
      let text = Format.asprintf "%a" Health.pp_report r in
      check Alcotest.bool "printed" true (contains text "session-cuts=2"))

(* Netsim.crash records ev_crash, so no crash path needs a second call
   to keep the watchdog from flagging a dead node as stuck. *)
let test_health_crash_via_netsim () =
  let n = 4 in
  let initial_ring = Array.init n Fun.id in
  let params =
    { Params.snappy with merge_probe_ns = Params.default.merge_probe_ns }
  in
  let members =
    Array.init n (fun me -> Member.create ~params ~me ~initial_ring ())
  in
  let h = Health.create ~n () in
  Trace.with_sink (Health.as_sink h) (fun () ->
      let sim =
        Netsim.create ~net:Profile.gigabit
          ~tiers:(Array.make n Profile.library)
          ~participants:(Array.map Member.participant members)
          ~seed:7L ()
      in
      Netsim.call_at sim ~at:(ms 5) (fun () -> Netsim.crash sim 2);
      Netsim.run_until sim (ms 800));
  let r = Health.report h ~now:(ms 800) in
  List.iter
    (fun (nr : Health.node_report) ->
      check Alcotest.string
        (Printf.sprintf "node %d phase" nr.nr_node)
        (if nr.nr_node = 2 then "crashed" else "operational")
        nr.nr_phase)
    r.r_nodes;
  check Alcotest.int "no stall flagged" 0 (List.length r.Health.r_stalls)

(* A watchdog is a plain subscriber: two subscribed over one faulty run
   each count every delivery and every phase entry, neither displacing
   the other. *)
let test_two_watchdogs_count_alike () =
  let n = 4 in
  let initial_ring = Array.init n Fun.id in
  let members =
    Array.init n (fun me ->
        Member.create ~params:Params.snappy ~me ~initial_ring ())
  in
  let outer = Health.create ~n () and inner = Health.create ~n () in
  Trace.with_sink (Health.as_sink outer) (fun () ->
      Trace.with_sink (Health.as_sink inner) (fun () ->
          let sim =
            Netsim.create ~net:Profile.gigabit
              ~tiers:(Array.make n Profile.library)
              ~participants:(Array.map Member.participant members)
              ~seed:7L ()
          in
          for k = 1 to 20 do
            Netsim.call_at sim ~at:(k * 500_000) (fun () ->
                Member.submit members.(k mod n) Types.Agreed
                  (Bytes.of_string (string_of_int k)))
          done;
          Netsim.call_at sim ~at:(ms 5) (fun () -> Netsim.crash sim 2);
          Netsim.run_until sim (ms 800)));
  let a = Health.report outer ~now:(ms 800)
  and b = Health.report inner ~now:(ms 800) in
  check Alcotest.bool "deliveries counted" true (a.r_deliveries > 0);
  check Alcotest.int "same deliveries" a.r_deliveries b.r_deliveries;
  let entries (r : Health.report) =
    List.map (fun (nr : Health.node_report) -> nr.nr_entries) r.r_nodes
  in
  check Alcotest.bool "gather entered" true
    (List.exists (fun nr -> List.assoc "gather" nr > 0) (entries a));
  check
    Alcotest.(list (list (pair string int)))
    "same phase entries" (entries a) (entries b)

let test_subscribers_see_disabled_records () =
  with_virtual_clock (fun t ->
      let h = Health.create ~n:1 () in
      let span = Span.create () in
      Flight.reset ();
      Flight.set_enabled false;
      Fun.protect
        ~finally:(fun () -> Flight.set_enabled true)
        (fun () ->
          Trace.with_sink (Health.as_sink h) (fun () ->
              Span.with_span span (fun () ->
                  t := 1_000;
                  let stamp = Span.submit_stamp () in
                  t := 3_000;
                  record ~node:0 Flight.ev_data_send ~a:1 ~b:0 ~d:stamp;
                  phase 0 Flight.phase_gather;
                  delivery ())));
      check Alcotest.int "nothing stored while disabled" 0 (Flight.total ());
      let r = Health.report h ~now:!t in
      check Alcotest.int "watchdog saw the delivery" 1 r.Health.r_deliveries;
      check Alcotest.string "watchdog saw the phase" "gather"
        (List.hd r.Health.r_nodes).Health.nr_phase;
      check Alcotest.int "spans saw the order and deliver steps" 1
        (List.length
           (List.filter
              (fun (s : Span.stage_report) ->
                s.Span.stage = Span.stage_e2e && s.Span.count = 1)
              (Span.report span))))

let test_watchdog_feed_allocates_nothing () =
  let h = Health.create ~n:1 () in
  Trace.with_sink (Health.as_sink h) (fun () ->
      let token_recv i =
        Flight.record ~node:0 ~code:Flight.ev_token_recv ~a:i ~b:i ~c:i ~d:i
      in
      for i = 1 to 1_000 do
        token_recv i
      done;
      let n = 100_000 in
      let before = Gc.minor_words () in
      for i = 1 to n do
        token_recv i
      done;
      let words = Gc.minor_words () -. before in
      check Alcotest.int "words allocated by 100k ev_token_recv records" 0
        (int_of_float words));
  Flight.reset ()

(* Every code reaches a trace sink as one event holding all nine
   arguments, whether or not ring writes are on, and that event reads
   back exactly from its JSONL line: a ring argument at the pack bounds
   or any int, arguments inside and outside the code's layout alike. *)
let test_flight_decodes_traced_steps () =
  let prng = Random.State.make [| 41 |] in
  let any () =
    (Random.State.bits prng lsl 33) lxor (Random.State.bits prng lsl 3)
    lxor Random.State.bits prng
  in
  with_virtual_clock (fun t ->
      for code = 1 to Flight.ev_session_cut do
        List.iter
          (fun (recording, e) ->
            t := !t + 100;
            let a = any () and b = any () and c = any () and d = any () in
            let f = any () and g = any () and h = any () and i = any () in
            let got = ref [] in
            Flight.set_enabled recording;
            Fun.protect
              ~finally:(fun () -> Flight.set_enabled true)
              (fun () ->
                Trace.with_sink
                  (Trace.fn_sink (fun ev -> got := ev :: !got))
                  (fun () ->
                    Flight.record_wide ~node:code ~code ~a ~b ~c ~d ~e ~f ~g ~h ~i));
            let name = Flight.code_name code in
            let want = ev !t code code ~a ~b ~c ~d ~e ~f ~g ~h ~i in
            check Alcotest.bool
              (Printf.sprintf "%s reaches the sink whole (recording=%b)" name recording)
              true (!got = [ want ]);
            check Alcotest.bool
              (Printf.sprintf "%s JSONL round trip" name)
              true
              (Flight.of_line (Flight.to_line want) = want))
          [
            (true, Flight.pack_ring ring_hi);
            (false, Flight.pack_ring ring_lo);
            (true, any ());
          ]
      done);
  Flight.reset ();
  (* With no subscriber, every code records without allocating, through
     either entry point. *)
  let words_per_100k record =
    let record_all () =
      for code = 1 to Flight.ev_session_cut do
        record ~code
      done
    in
    record_all ();
    let before = Gc.minor_words () in
    for _ = 1 to 5_000 do
      record_all ()
    done;
    let words = Gc.minor_words () -. before in
    Flight.reset ();
    int_of_float words
  in
  check Alcotest.int "words allocated by 5,000 records of every code" 0
    (words_per_100k (fun ~code -> Flight.record ~node:0 ~code ~a:1 ~b:1 ~c:0 ~d:0));
  check Alcotest.int "words allocated by 5,000 wide records of every code" 0
    (words_per_100k (fun ~code ->
         Flight.record_wide ~node:0 ~code ~a:1 ~b:1 ~c:0 ~d:0 ~e:1 ~f:1 ~g:1
           ~h:1 ~i:1))

(* Over a faulty run, a trace sink sees exactly the records a plain
   Flight subscriber sees, node by node and code by code, and the
   interpreter's boundary codes match the simulator's own delivery and
   view callbacks. *)
let test_traced_steps_match_flight () =
  let n = 4 in
  let params =
    { Params.snappy with merge_probe_ns = Params.default.merge_probe_ns }
  in
  let initial_ring = Array.init n Fun.id in
  let members =
    Array.init n (fun me -> Member.create ~params ~me ~initial_ring ())
  in
  let codes = Flight.ev_view_install + 1 in
  let from_flight = Array.make_matrix n codes 0 in
  let from_trace = Array.make_matrix n codes 0 in
  let callbacks = Array.make_matrix n codes 0 in
  let bump counts node code = counts.(node).(code) <- counts.(node).(code) + 1 in
  let subscriber ~ns:_ ~node ~code ~a:_ ~b:_ ~c:_ ~d:_ ~e:_ ~f:_ ~g:_ ~h:_ ~i:_ =
    bump from_flight node code
  in
  let sink = Trace.fn_sink (fun (e : Flight.event) -> bump from_trace e.node e.code) in
  Flight.subscribe subscriber;
  Fun.protect
    ~finally:(fun () -> Flight.unsubscribe subscriber)
    (fun () ->
      Trace.with_sink sink (fun () ->
          let sim =
            Netsim.create
              ~net:(Profile.with_loss Profile.gigabit 0.01)
              ~tiers:(Array.make n Profile.library)
              ~participants:(Array.map Member.participant members)
              ~seed:17L ()
          in
          Netsim.on_deliver sim (fun ~at ~now:_ _ ->
              bump callbacks at Flight.ev_app_deliver);
          Netsim.on_view sim (fun ~at ~now:_ _ ->
              bump callbacks at Flight.ev_view_install);
          for node = 0 to n - 1 do
            let rec tick () =
              let now = Netsim.now sim in
              if now < ms 300 && Netsim.is_alive sim node then begin
                Netsim.submit_now sim ~node Types.Agreed (Bytes.create 200);
                Netsim.call_at sim ~at:(now + 1_000_000) tick
              end
            in
            Netsim.call_at sim ~at:(node * 100_000) tick
          done;
          Netsim.call_at sim ~at:(ms 100) (fun () -> Netsim.crash sim 2);
          Netsim.run_until sim (ms 500)));
  Flight.reset ();
  for node = 0 to n - 1 do
    check
      Alcotest.(array int)
      (Printf.sprintf "node %d: records per code, sink vs subscriber" node)
      from_flight.(node) from_trace.(node);
    List.iter
      (fun code ->
        check Alcotest.int
          (Printf.sprintf "node %d: %s records vs callbacks" node
             (Flight.code_name code))
          callbacks.(node).(code) from_trace.(node).(code))
      [ Flight.ev_app_deliver; Flight.ev_view_install ]
  done;
  let total code = Array.fold_left (fun acc row -> acc + row.(code)) 0 from_trace in
  List.iter
    (fun code ->
      check Alcotest.bool (Flight.code_name code ^ " occurred") true (total code > 0))
    [
      Flight.ev_token_retransmit; Flight.ev_token_lost; Flight.ev_phase;
      Flight.ev_crash; Flight.ev_token_recv; Flight.ev_token_send;
      Flight.ev_data_send; Flight.ev_drop; Flight.ev_deliver;
      Flight.ev_app_deliver; Flight.ev_view_install;
    ]

(* A packet drop is on record with no trace sink installed: a switch port
   buffer smaller than one data packet overflows on every data send. *)
let test_switch_drop_recorded_without_sink () =
  let n = 3 in
  let initial_ring = Array.init n Fun.id in
  let members =
    Array.init n (fun me ->
        Member.create ~params:Params.default ~me ~initial_ring ())
  in
  Flight.reset ();
  let sim =
    Netsim.create
      ~net:{ Profile.gigabit with switch_port_buffer = 600 }
      ~tiers:(Array.make n Profile.library)
      ~participants:(Array.map Member.participant members)
      ~seed:3L ()
  in
  Netsim.call_at sim ~at:(ms 1) (fun () ->
      Netsim.submit_now sim ~node:0 Types.Agreed (Bytes.create 1_000));
  Netsim.run_until sim (ms 20);
  let drops =
    List.filter
      (fun (r : Flight.event) -> r.code = Flight.ev_drop)
      (Flight.records ())
  in
  Flight.reset ();
  check Alcotest.bool "a switch drop occurred" true
    ((Netsim.stats sim).switch_drops > 0);
  check Alcotest.int "one ev_drop record per switch drop"
    (Netsim.stats sim).switch_drops (List.length drops);
  List.iter
    (fun (r : Flight.event) ->
      check Alcotest.int "reason" Flight.drop_switch r.a;
      check Alcotest.bool "an oversized packet" true (r.b > 600))
    drops

(* A kind the trace no longer has is a parse error naming the line and
   the kind; so is a known kind missing a field of its layout. *)
let test_deleted_kind_rejected () =
  let path = Filename.temp_file "trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "{\"ns\":1,\"node\":0,\"ev\":\"token_lost\",\"round\":3}\n\
         {\"ns\":2,\"node\":0,\"ev\":\"timer_arm\",\"timer\":\"token_loss\",\"delay_ns\":5}\n";
      close_out oc;
      (match Flight.of_line "{\"ns\":1,\"node\":0,\"ev\":\"drop\",\"size\":9}" with
      | _ -> Alcotest.fail "a drop line without its reason parsed"
      | exception Json.Parse_error msg ->
          check Alcotest.bool ("names the field: " ^ msg) true
            (contains msg "reason"));
      match Flight.read_file path with
      | _ -> Alcotest.fail "a timer_arm line parsed"
      | exception Json.Parse_error msg ->
          check Alcotest.bool ("names the line: " ^ msg) true
            (contains msg "line 2");
          check Alcotest.bool ("names the kind: " ^ msg) true
            (contains msg "timer_arm"))

(* The trace tool reads a flight dump: its summary counts every stored
   record, with the drops broken down by reason. *)
let test_trace_tool_reads_flight_dump () =
  let exe =
    let p = Filename.concat "../bin" "accelring_trace.exe" in
    if Sys.file_exists p then p else Filename.concat "_build/default/bin" "accelring_trace.exe"
  in
  Flight.reset ();
  with_virtual_clock (fun t ->
      for code = 1 to Flight.ev_session_cut do
        t := code * 1_000;
        Flight.record_wide ~node:(code mod 3) ~code ~a:Flight.drop_switch ~b:code ~c:1
          ~d:2 ~e:(Flight.pack_ring rid) ~f:3 ~g:4 ~h:5 ~i:6
      done);
  let dump = Filename.temp_file "flight" ".jsonl" in
  let out = Filename.temp_file "summary" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Flight.reset ();
      Sys.remove dump;
      Sys.remove out)
    (fun () ->
      Flight.dump_jsonl_file dump;
      check Alcotest.bool "the dump reads back as the records" true
        (Flight.read_file dump = Flight.records ());
      let status = Sys.command (Filename.quote_command exe ~stdout:out [ dump ]) in
      let text = read_whole out in
      check Alcotest.int ("exit status; output:\n" ^ text) 0 status;
      List.iter
        (fun line ->
          check Alcotest.bool ("summary line: " ^ line) true (contains text line))
        [ "20 events, 3 nodes"; "app_deliver"; "view_install"; "session_cut";
          "drops by reason:";
          "  switch             1" ])

(* The trace tool's summary ends with the membership timeline. On the
   pinned 20261018/706 reproducer (6 nodes, 3 % loss, a 32 KiB switch
   port), replayed with its trace written, every regular view is
   installed by all its members within one token retransmit (10 ms) of
   each other. *)
let test_trace_tool_prints_membership_timeline () =
  let exe =
    let p = Filename.concat "../bin" "accelring_trace.exe" in
    if Sys.file_exists p then p else Filename.concat "_build/default/bin" "accelring_trace.exe"
  in
  let entry = "staggered_install-seed17416711353309702130-f0.json" in
  let path =
    List.find Sys.file_exists
      [ Filename.concat "corpus" entry; Filename.concat "test/corpus" entry ]
  in
  let events = ref [] in
  let o =
    Trace.with_sink
      (Trace.fn_sink (fun ev -> events := ev :: !events))
      (fun () -> Aring_fuzz.Runner.run (Aring_fuzz.Corpus.load_file path))
  in
  check Alcotest.bool "the reproducer converges" true (Aring_fuzz.Runner.passed o);
  let file = Filename.temp_file "replay" ".jsonl" in
  let out = Filename.temp_file "summary" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove file;
      Sys.remove out)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          List.iter
            (fun ev ->
              output_string oc (Flight.to_line ev);
              output_char oc '\n')
            (List.rev !events));
      let status = Sys.command (Filename.quote_command exe ~stdout:out [ file ]) in
      check Alcotest.int "exit status" 0 status;
      let lines =
        String.split_on_char '\n' (read_whole out)
        |> List.filter (fun l -> contains l " installed from ")
      in
      check Alcotest.bool "one line per regular view" true (List.length lines >= 4);
      List.iter
        (fun line ->
          Scanf.sscanf line " [%d,%d] %d/%d installed from %f ms, spread %f ms"
            (fun _ _ installed members _ spread ->
              check Alcotest.int ("installed by every member: " ^ line) members
                installed;
              check Alcotest.bool ("within one token retransmit: " ^ line) true
                (spread <= 10.5)))
        lines)

(* Each anchor rotation is one sample: seven rotations of distinct
   lengths, fed offline, make seven. *)
let test_rotation_counts_each_sample () =
  let prof = Rotation.create ~node:0 () in
  let lengths_us = [ 130; 40; 700; 1_000; 55; 250; 100 ] in
  ignore
    (List.fold_left
       (fun (t_ns, id) len_us ->
         Trace.feed (Rotation.as_sink prof) (token_recv ~id ~aru:id t_ns 0);
         (t_ns + (len_us * 1_000), id + 1))
       (1_000, 1) (lengths_us @ [ 0 ]));
  let s = Rotation.summary prof in
  check Alcotest.int "seven rotations" 7 s.Rotation.rotations

(* -------------------------------------------------------------------- *)
(* Span histograms pinned                                                *)

(* A fixed record stream through one collector: per ordered message a
   pack note, one data-send, and a deliver and an apply at each of four
   nodes, at stage gaps that span the ladder and fall between whole
   µs. *)
let span_stream_fingerprint () =
  with_virtual_clock (fun t ->
      let span = Span.create () in
      Span.with_span span (fun () ->
          for seq = 1 to 300 do
            let submit = seq * 10_000 in
            t := submit;
            let stamp = Span.submit_stamp () in
            t := submit + (seq * 37 mod 900);
            Span.note_packed ~submit_ns:stamp;
            let sent = submit + 1_000 + (seq * 7_919 mod 400_000) in
            t := sent;
            record ~node:(seq land 3) Flight.ev_data_send ~a:seq ~b:0 ~d:stamp;
            for node = 0 to 3 do
              let delivered = sent + ((node + 1) * (seq * 131 mod 50_000)) + 333 in
              t := delivered;
              record ~node Flight.ev_deliver ~a:seq ~b:(seq land 3) ~d:0;
              t := delivered + (seq * 17 mod 3_000);
              record ~node Flight.ev_apply ~a:seq ~b:0 ~d:0
            done
          done);
      List.map
        (fun stage ->
          let h = List.assoc stage (Metrics.histograms (Span.metrics span)) in
          let buckets =
            Metrics.hist_bucket_counts h |> Array.to_list
            |> List.mapi (fun i n -> (i, n))
            |> List.filter (fun (_, n) -> n > 0)
            |> List.map (fun (i, n) -> Printf.sprintf "%d:%d" i n)
          in
          Printf.sprintf "%s n=%d sum=%h [%s]" stage (Metrics.hist_count h)
            (Metrics.hist_sum h) (String.concat " " buckets))
        Span.stage_names)

(* Pinned from the collector as it was when each sample was converted
   to a float µs value before [Metrics.observe]: bucket counts and the
   sum's exact bits. *)
let test_span_histograms_pinned () =
  check
    Alcotest.(list string)
    "five stage histograms"
    [
      "span.submit_wait_us n=300 sum=0x1.0719999999999p+7 [0:300]";
      "span.order_us n=300 sum=0x1.d6a5b33333333p+15 [2:3 3:3 4:6 5:24 6:39 7:75 8:150]";
      "span.deliver_us n=1200 sum=0x1.d13433333333ep+15 [0:9 1:16 2:46 3:80 4:161 5:397 6:334 7:157]";
      "span.apply_us n=1200 sum=0x1.8b8cccccccccfp+10 [0:468 1:472 2:260]";
      "span.e2e_us n=1200 sum=0x1.2579600000001p+18 [3:4 4:7 5:41 6:115 7:288 8:735 9:10]";
    ]
    (span_stream_fingerprint ())

(* [observe_ns] converts its int sample inside the histogram: 10k
   computed samples allocate no word, on either ladder. *)
let test_observe_ns_allocates_nothing () =
  Array.iter
    (fun bounds ->
      let h = Metrics.histogram ~bounds (Metrics.create ()) "h" in
      let i = ref 0 in
      let sample () =
        incr i;
        Metrics.observe_ns h ((!i * 7_919) land 0xFF_FFFF)
      in
      for _ = 1 to 1_000 do
        sample ()
      done;
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        sample ()
      done;
      let words = Gc.minor_words () -. before in
      check Alcotest.int
        (Printf.sprintf "words over 10k observe_ns (%d buckets)" (Array.length bounds))
        0 (int_of_float words))
    ladders

let suite =
  [
    Alcotest.test_case "metrics: counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "metrics: histogram" `Quick test_histogram;
    Alcotest.test_case "metrics: histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "metrics: registry merge" `Quick test_registry_merge;
    Alcotest.test_case "trace: sinks" `Quick test_sinks;
    Alcotest.test_case "trace: jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "trace: chrome exporter golden" `Quick test_chrome_golden;
    Alcotest.test_case "checker: clean trace" `Quick test_checker_clean;
    Alcotest.test_case "checker: two token holders" `Quick test_checker_two_holders;
    Alcotest.test_case "checker: order mismatch" `Quick test_checker_order_mismatch;
    Alcotest.test_case "checker: delivery gaps" `Quick test_checker_gap;
    Alcotest.test_case "checker: aru monotonicity" `Quick test_checker_aru_monotonic;
    Alcotest.test_case "sim: invariants hold (clean)" `Quick test_sim_invariants_clean;
    Alcotest.test_case "sim: invariants hold (lossy)" `Quick test_sim_invariants_lossy;
    Alcotest.test_case "sim: invariants hold (crash)" `Slow test_sim_invariants_crash;
    Alcotest.test_case "rotation profiler" `Quick test_rotation_profiler;
    Alcotest.test_case "metrics: hist merge edge cases" `Quick
      test_hist_merge_edge_cases;
    Alcotest.test_case "metrics: hist merge saturates" `Quick
      test_hist_merge_saturates;
    QCheck_alcotest.to_alcotest prop_hist_merge_counts;
    Alcotest.test_case "chrome exporter output parses for every code" `Quick
      test_chrome_every_code_parses;
    QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
    Alcotest.test_case "flight recorder: wrap, dump, reset" `Quick
      test_flight_wrap_and_dump;
    Alcotest.test_case "latency spans: stage quantiles" `Quick test_span_stages;
    Alcotest.test_case "health: formation cycle detected" `Quick
      test_health_formation_cycle;
    Alcotest.test_case "health: operational resets attempts" `Quick
      test_health_operational_resets;
    Alcotest.test_case "health: no-progress stall and crash exclusion" `Quick
      test_health_no_progress_and_crash;
    Alcotest.test_case "health: a crash reaches the watchdog through Netsim.crash alone"
      `Quick test_health_crash_via_netsim;
    Alcotest.test_case "flight: subscribers still see records while the recorder is disabled"
      `Quick test_subscribers_see_disabled_records;
    Alcotest.test_case "flight: 0 words per ev_token_recv record with a watchdog attached"
      `Quick test_watchdog_feed_allocates_nothing;
    Alcotest.test_case "health: report names the cycle" `Quick
      test_health_report_renders;
    QCheck_alcotest.to_alcotest prop_hist_matches_reference;
    Alcotest.test_case "metrics: at most 2 words per observe" `Quick
      test_observe_allocation;
    Alcotest.test_case "flight: traced codes decode into one trace event each"
      `Quick test_flight_decodes_traced_steps;
    Alcotest.test_case "flight: traced steps match a subscriber's counts per node"
      `Quick test_traced_steps_match_flight;
    Alcotest.test_case "trace: a deleted kind is a parse error" `Quick
      test_deleted_kind_rejected;
    Alcotest.test_case "flight: a switch drop is recorded with no trace sink"
      `Quick test_switch_drop_recorded_without_sink;
    Alcotest.test_case "trace: the trace tool summarizes a flight dump" `Quick
      test_trace_tool_reads_flight_dump;
    Alcotest.test_case "rotation: counts each sample once" `Quick
      test_rotation_counts_each_sample;
    Alcotest.test_case "health: two watchdogs subscribed at once count alike"
      `Quick test_two_watchdogs_count_alike;
    Alcotest.test_case "latency spans: collectors nest" `Quick
      test_span_collectors_nest;
    Alcotest.test_case "health: counts a daemon's session cuts" `Quick
      test_health_counts_session_cuts;
    Alcotest.test_case "latency spans: stage histograms pinned" `Quick
      test_span_histograms_pinned;
    Alcotest.test_case "metrics: 0 words per observe_ns" `Quick
      test_observe_ns_allocates_nothing;
    Alcotest.test_case "trace: the summary ends with the membership timeline"
      `Quick test_trace_tool_prints_membership_timeline;
  ]
