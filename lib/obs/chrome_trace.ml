(* Chrome trace-event exporter (chrome://tracing / Perfetto "JSON trace"
   format). Each protocol node becomes one thread row of a single
   process; the interval between consecutive accepted token receipts is
   rendered as a duration slice on the receiving node's row, so one ring
   rotation reads as a staircase of slices across the node rows. Data
   motion, retransmissions, views and faults are instant events, and the
   token's flow-control counter (fcc) is exported as a counter track.

   Timestamps are microseconds (the unit the format requires); the
   simulator's virtual nanoseconds are divided down. *)

let us_of_ns ns = ns / 1_000

let common ~name ~ph ~ts ~node rest =
  Json.Obj
    (("name", Json.String name)
    :: ("ph", Json.String ph)
    :: ("ts", Json.Int ts)
    :: ("pid", Json.Int 0)
    :: ("tid", Json.Int node)
    :: rest)

let instant ?(scope = "t") ~name ~ts ~node args =
  common ~name ~ph:"i" ~ts ~node
    [ ("s", Json.String scope); ("args", Json.Obj args) ]

let span ~name ~ts ~dur ~node args =
  common ~name ~ph:"X" ~ts ~node
    [ ("dur", Json.Int (max 1 dur)); ("args", Json.Obj args) ]

let thread_name ~node name =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 0);
      ("tid", Json.Int node);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let counter ~name ~ts ~node value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "C");
      ("ts", Json.Int ts);
      ("pid", Json.Int node);
      ("args", Json.Obj [ ("value", Json.Int value) ]);
    ]

let ring_str k =
  let (r : Aring_wire.Types.ring_id) = Flight.unpack_ring k in
  Printf.sprintf "%d.%d" r.rep r.ring_seq

let to_json (events : Flight.event list) =
  let events =
    List.stable_sort (fun (x : Flight.event) y -> compare x.ns y.ns) events
  in
  let nodes = List.sort_uniq compare (List.map (fun (ev : Flight.event) -> ev.node) events) in
  let out = ref [] in
  let push j = out := j :: !out in
  List.iter
    (fun node -> push (thread_name ~node (Printf.sprintf "node %d" node)))
    nodes;
  (* Token-holding slices: from one accepted receipt to the next receipt
     anywhere on the same ring. *)
  let pending_recv = ref None in
  let close_span ~until =
    match !pending_recv with
    | None -> ()
    | Some (recv : Flight.event) ->
        push
          (span
             ~name:(Printf.sprintf "round %d" recv.f)
             ~ts:(us_of_ns recv.ns)
             ~dur:(us_of_ns until - us_of_ns recv.ns)
             ~node:recv.node
             [
               ("ring", Json.String (ring_str recv.e));
               ("token_id", Json.Int recv.a);
               ("seq", Json.Int recv.b);
               ("aru", Json.Int recv.c);
             ]);
        pending_recv := None
  in
  (* Layouts in flight.mli; codes the view does not show are skipped. *)
  List.iter
    (fun (ev : Flight.event) ->
      let ts = us_of_ns ev.ns in
      let node = ev.node in
      let code = ev.code in
      if code = Flight.ev_token_recv then begin
        (match !pending_recv with
        | Some prev when prev.e = ev.e -> close_span ~until:ev.ns
        | Some _ -> pending_recv := None
        | None -> ());
        pending_recv := Some ev
      end
      else if code = Flight.ev_token_send then push (counter ~name:"fcc" ~ts ~node ev.h)
      else if code = Flight.ev_token_retransmit then
        push
          (instant ~name:"token_retransmit" ~ts ~node
             [ ("token_id", Json.Int ev.a); ("attempt", Json.Int ev.b) ])
      else if code = Flight.ev_token_lost then
        push (instant ~scope:"g" ~name:"token_lost" ~ts ~node [])
      else if code = Flight.ev_data_send then
        push
          (instant
             ~name:(if ev.c = 1 then "retransmit" else "send")
             ~ts ~node
             [
               ("seq", Json.Int ev.a);
               ("size", Json.Int ev.f);
               ("post_token", Json.Bool (ev.b = 1));
             ])
      else if code = Flight.ev_app_deliver then
        push
          (instant ~name:"deliver" ~ts ~node
             [ ("seq", Json.Int ev.a); ("sender", Json.Int ev.b);
               ("service", Json.String (Flight.service_name ev.c)) ])
      else if code = Flight.ev_view_install then
        push
          (instant ~scope:"p"
             ~name:(if ev.a = 1 then "view (transitional)" else "view")
             ~ts ~node
             [ ("ring", Json.String (ring_str ev.e)); ("members", Json.Int ev.b) ])
      else if code = Flight.ev_phase then
        push (instant ~name:("phase: " ^ Flight.phase_name ev.a) ~ts ~node [])
      else if code = Flight.ev_crash then
        push (instant ~scope:"g" ~name:"crash" ~ts ~node [])
      else if code = Flight.ev_drop then
        push
          (instant ~name:("drop: " ^ Flight.drop_reason_name ev.a) ~ts ~node
             [ ("size", Json.Int ev.b) ])
      else if code = Flight.ev_xfer then
        push
          (instant ~scope:"p" ~name:("xfer: " ^ Flight.xfer_phase_name ev.b) ~ts ~node
             [
               ("donor", Json.Int ev.a);
               ("applied", Json.Int ev.c);
               ("entries", Json.Int ev.d);
             ]))
    events;
  (match events with
  | [] -> ()
  | _ ->
      let last = List.fold_left (fun _ (ev : Flight.event) -> ev.ns) 0 events in
      close_span ~until:(last + 1_000));
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !out));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_string events = Json.to_string (to_json events)

let write_channel oc events =
  output_string oc (to_string events);
  output_char oc '\n'

let write_file path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> write_channel oc events)
