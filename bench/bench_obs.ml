(* Observability overhead benchmark (`-- obs [quick]`). The flight
   recorder is always on in every run, so its per-event cost IS protocol
   overhead: measure ns/event and allocated bytes/event in steady state
   (after the per-node rings exist), for a four-argument record and for
   the widest one (a token send), the disabled recorder, the same
   records with a health watchdog subscribed (the feed of the always-on
   instruments), the detached span stamp hook (a single ref read), and
   an active span collector's bytes per record it decodes. Gated by
   bench/obs_budget.json. *)

module Json = Aring_obs.Json

let alloc_per_call = Bench_hotpath.alloc_per_call

let run ~quick =
  let module Flight = Aring_obs.Flight in
  let module Span = Aring_obs.Span in
  let module Health = Aring_obs.Health in
  Printf.printf "=== Observability overhead benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  let iters = if quick then 2_000_000 else 10_000_000 in
  let nodes = 8 in
  (* Warm the recorder: the per-node rings allocate lazily on first
     record; steady state is eleven int stores into a flat array. *)
  Flight.reset ();
  for node = 0 to nodes - 1 do
    for i = 0 to 1023 do
      Flight.record ~node ~code:Flight.ev_deliver ~a:i ~b:0 ~c:0 ~d:0
    done
  done;
  let time_per_call ~iters f =
    for _ = 1 to 10_000 do
      f ()
    done;
    let t0 = Sys.time () in
    for _ = 1 to iters do
      f ()
    done;
    (Sys.time () -. t0) *. 1e9 /. float_of_int iters
  in
  let i = ref 0 in
  let record_event () =
    incr i;
    Flight.record ~node:(!i land 7) ~code:Flight.ev_data_recv ~a:!i ~b:3 ~c:0
      ~d:0
  in
  let flight_ns = time_per_call ~iters record_event in
  let flight_alloc = alloc_per_call ~iters record_event in
  let record_wide_event () =
    incr i;
    Flight.record_wide ~node:(!i land 7) ~code:Flight.ev_token_send ~a:!i
      ~b:!i ~c:!i ~d:0 ~e:1 ~f:!i ~g:!i ~h:3 ~i:!i
  in
  let wide_ns = time_per_call ~iters record_wide_event in
  let wide_alloc = alloc_per_call ~iters record_wide_event in
  Flight.set_enabled false;
  let disabled_ns = time_per_call ~iters record_event in
  let disabled_alloc = alloc_per_call ~iters record_event in
  Flight.set_enabled true;
  (* Every fuzz run subscribes a watchdog to the recorder: each record is
     then also dispatched to it and decoded (a data-recv record matches
     none of its codes, the common case on the hot path). *)
  let watched_ns, watched_alloc =
    let watchdog = Health.as_sink (Health.create ~n:nodes ()) in
    Aring_obs.Trace.with_sink watchdog (fun () ->
        ( time_per_call ~iters record_event,
          alloc_per_call ~iters record_event ))
  in
  (* The span stamp sits on the submit path but is opt-in: detached (the
     default outside sim/load runs) it is one ref read. *)
  let span_hook () = ignore (Span.submit_stamp ()) in
  let span_ns = time_per_call ~iters span_hook in
  let span_alloc = alloc_per_call ~iters span_hook in
  (* An active collector, fed per ordered message the records it
     decodes: a data-send carrying the submit stamp, then a deliver and
     an apply at each of four nodes, on a clock that moves between them.
     Every sample goes to a histogram unboxed; what remains is the
     in-flight table's entry per ordered message. *)
  let span_events = 9 in
  let span_active_alloc =
    let clock = ref 0 and seq = ref 0 in
    Flight.set_clock (fun () -> !clock);
    let message () =
      incr seq;
      clock := !clock + 1_000;
      let stamp = !clock in
      clock := !clock + 50_000 + (!seq land 1023);
      Flight.record ~node:0 ~code:Flight.ev_data_send ~a:!seq ~b:0 ~c:0 ~d:stamp;
      for node = 0 to 3 do
        clock := !clock + 20_000 + (node * 333);
        Flight.record ~node ~code:Flight.ev_deliver ~a:!seq ~b:0 ~c:0 ~d:0;
        clock := !clock + 500;
        Flight.record ~node ~code:Flight.ev_apply ~a:!seq ~b:0 ~c:0 ~d:0
      done
    in
    let per_message =
      Span.with_span (Span.create ()) (fun () ->
          alloc_per_call ~iters:(iters / span_events) message)
    in
    Flight.set_clock (fun () -> 0);
    per_message /. float_of_int span_events
  in
  Printf.printf
    "flight recorder (enabled, warm): %7.1f ns/event  %5.2f bytes/event\n\
     flight recorder (widest record): %7.1f ns/event  %5.2f bytes/event\n\
     flight recorder (disabled):      %7.1f ns/event  %5.2f bytes/event\n\
     flight recorder + watchdog:      %7.1f ns/event  %5.2f bytes/event\n\
     span hook (detached):            %7.1f ns/call   %5.2f bytes/call\n\
     span collector (active):                         %5.2f bytes/event\n%!"
    flight_ns flight_alloc wide_ns wide_alloc disabled_ns disabled_alloc
    watched_ns watched_alloc span_ns span_alloc span_active_alloc;
  {
    Gate.fields =
      [
        ("iters", Json.Int iters);
        ( "flight",
          Json.Obj
            [
              ("ns_per_event", Json.Float flight_ns);
              ("alloc_bytes_per_event", Json.Float flight_alloc);
              ("wide_ns_per_event", Json.Float wide_ns);
              ("wide_alloc_bytes_per_event", Json.Float wide_alloc);
              ("disabled_ns_per_event", Json.Float disabled_ns);
              ("disabled_alloc_bytes_per_event", Json.Float disabled_alloc);
              ("watched_ns_per_event", Json.Float watched_ns);
              ("watched_alloc_bytes_per_event", Json.Float watched_alloc);
              ("capacity_per_node", Json.Int (Flight.capacity ()));
            ] );
        ( "hooks_detached",
          Json.Obj
            [
              ("span_ns_per_call", Json.Float span_ns);
              ("span_alloc_bytes_per_call", Json.Float span_alloc);
            ] );
        ( "span_active",
          Json.Obj
            [
              ("events_per_message", Json.Int span_events);
              ("span_active_alloc_bytes_per_event", Json.Float span_active_alloc);
            ] );
      ];
    checks =
      [
        Max ("max_flight_ns_per_event", flight_ns);
        Max ("max_flight_alloc_bytes_per_event", flight_alloc);
        Max ("max_flight_ns_per_event", wide_ns);
        Max ("max_flight_alloc_bytes_per_event", wide_alloc);
        Max ("max_disabled_ns_per_event", disabled_ns);
        Max ("max_flight_ns_per_event", watched_ns);
        Max ("max_flight_alloc_bytes_per_event", watched_alloc);
        Max ("max_detached_hook_ns", span_ns);
        Max ("max_span_active_alloc_bytes_per_event", span_active_alloc);
      ];
    echo = [];
    conditions = [];
  }
