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

let ring_str (r : Aring_wire.Types.ring_id) =
  Printf.sprintf "%d.%d" r.rep r.ring_seq

let to_json (events : Trace.event list) =
  let events =
    List.stable_sort (fun (a : Trace.event) b -> compare a.t_ns b.t_ns) events
  in
  let nodes = List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.node) events) in
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
    | Some (ring, node, ts, round, token_id, seq, aru) ->
        push
          (span
             ~name:(Printf.sprintf "round %d" round)
             ~ts:(us_of_ns ts)
             ~dur:(us_of_ns until - us_of_ns ts)
             ~node
             [
               ("ring", Json.String (ring_str ring));
               ("token_id", Json.Int token_id);
               ("seq", Json.Int seq);
               ("aru", Json.Int aru);
             ]);
        pending_recv := None
  in
  List.iter
    (fun (ev : Trace.event) ->
      let ts = us_of_ns ev.t_ns in
      let node = ev.node in
      match ev.kind with
      | Token_recv { ring; token_id; round; seq; aru; _ } ->
          (match !pending_recv with
          | Some (prev_ring, _, _, _, _, _, _) when prev_ring = ring ->
              close_span ~until:ev.t_ns
          | Some _ -> pending_recv := None
          | None -> ());
          pending_recv := Some (ring, node, ev.t_ns, round, token_id, seq, aru)
      | Token_send { fcc; _ } -> push (counter ~name:"fcc" ~ts ~node fcc)
      | Token_retransmit { token_id; attempt } ->
          push
            (instant ~name:"token_retransmit" ~ts ~node
               [ ("token_id", Json.Int token_id); ("attempt", Json.Int attempt) ])
      | Token_lost -> push (instant ~scope:"g" ~name:"token_lost" ~ts ~node [])
      | Data_send { seq; size; post_token; retrans; _ } ->
          push
            (instant
               ~name:(if retrans then "retransmit" else "send")
               ~ts ~node
               [
                 ("seq", Json.Int seq);
                 ("size", Json.Int size);
                 ("post_token", Json.Bool post_token);
               ])
      | Deliver { seq; sender; service; _ } ->
          push
            (instant ~name:"deliver" ~ts ~node
               [ ("seq", Json.Int seq); ("sender", Json.Int sender);
                 ("service", Json.String service) ])
      | View_install { ring; members; transitional } ->
          push
            (instant ~scope:"p"
               ~name:(if transitional then "view (transitional)" else "view")
               ~ts ~node
               [
                 ("ring", Json.String (ring_str ring));
                 ("members", Json.Int (List.length members));
               ])
      | Phase { phase } ->
          push (instant ~name:("phase: " ^ phase) ~ts ~node [])
      | Crash -> push (instant ~scope:"g" ~name:"crash" ~ts ~node [])
      | Drop { reason; size } ->
          push
            (instant ~name:("drop: " ^ reason) ~ts ~node
               [ ("size", Json.Int size) ])
      | App_xfer { phase; donor; applied; entries; _ } ->
          push
            (instant ~scope:"p" ~name:("xfer: " ^ phase) ~ts ~node
               [
                 ("donor", Json.Int donor);
                 ("applied", Json.Int applied);
                 ("entries", Json.Int entries);
               ]))
    events;
  (match events with
  | [] -> ()
  | _ ->
      let last = List.fold_left (fun _ (e : Trace.event) -> e.t_ns) 0 events in
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
