(* Observability overhead benchmark (`-- obs [quick]`). The flight
   recorder is always on in every run, so its per-event cost IS protocol
   overhead: measure ns/event and allocated bytes/event in steady state
   (after the per-node rings exist), plus the disabled-recorder and
   detached span/health hook costs (a single ref read each). Gated by
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
     record; steady state is six int stores into a flat array. *)
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
  Flight.set_enabled false;
  let disabled_ns = time_per_call ~iters record_event in
  let disabled_alloc = alloc_per_call ~iters record_event in
  Flight.set_enabled true;
  (* The span/health hooks sit on the engine hot path but are opt-in:
     detached (the default outside sim/fuzz runs) each is one ref read. *)
  let span_hook () = ignore (Span.submit_stamp ()) in
  let span_ns = time_per_call ~iters span_hook in
  let span_alloc = alloc_per_call ~iters span_hook in
  let health_hook () = Health.note_delivery () in
  let health_ns = time_per_call ~iters health_hook in
  let health_alloc = alloc_per_call ~iters health_hook in
  Printf.printf
    "flight recorder (enabled, warm): %7.1f ns/event  %5.2f bytes/event\n\
     flight recorder (disabled):      %7.1f ns/event  %5.2f bytes/event\n\
     span hook (detached):            %7.1f ns/call   %5.2f bytes/call\n\
     health hook (detached):          %7.1f ns/call   %5.2f bytes/call\n%!"
    flight_ns flight_alloc disabled_ns disabled_alloc span_ns span_alloc
    health_ns health_alloc;
  {
    Gate.fields =
      [
        ("iters", Json.Int iters);
        ( "flight",
          Json.Obj
            [
              ("ns_per_event", Json.Float flight_ns);
              ("alloc_bytes_per_event", Json.Float flight_alloc);
              ("disabled_ns_per_event", Json.Float disabled_ns);
              ("disabled_alloc_bytes_per_event", Json.Float disabled_alloc);
              ("capacity_per_node", Json.Int (Flight.capacity ()));
            ] );
        ( "hooks_detached",
          Json.Obj
            [
              ("span_ns_per_call", Json.Float span_ns);
              ("span_alloc_bytes_per_call", Json.Float span_alloc);
              ("health_ns_per_call", Json.Float health_ns);
              ("health_alloc_bytes_per_call", Json.Float health_alloc);
            ] );
      ];
    checks =
      [
        Max ("max_flight_ns_per_event", flight_ns);
        Max ("max_flight_alloc_bytes_per_event", flight_alloc);
        Max ("max_disabled_ns_per_event", disabled_ns);
        Max ("max_detached_hook_ns", span_ns);
        Max ("max_detached_hook_ns", health_ns);
      ];
    echo = [];
    conditions = [];
  }
