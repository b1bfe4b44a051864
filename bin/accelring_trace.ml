(* CLI: inspect a recorded JSONL protocol trace — print it, summarize
   it, convert it for chrome://tracing, re-run the invariant checker, or
   recompute the token-rotation profile. The trace is Flight records,
   one {!Aring_obs.Flight.to_line} per line: `accelring_sim --trace
   out.jsonl`, `accelring_fuzz --replay ... --trace out.jsonl` or a
   `--flight-dump` post-mortem. *)

module Flight = Aring_obs.Flight
module Trace = Aring_obs.Trace
module Chrome_trace = Aring_obs.Chrome_trace
module Checker = Aring_obs.Checker
module Rotation = Aring_obs.Rotation

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let print_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) -> match compare b a with 0 -> compare ka kb | c -> c)
  |> List.iter (fun (k, v) -> Format.printf "  %-18s %d@." k v)

let summarize events =
  let kinds = Hashtbl.create 16 in
  let drops = Hashtbl.create 4 in
  let nodes = Hashtbl.create 16 in
  let t_min = ref max_int and t_max = ref min_int in
  List.iter
    (fun (ev : Flight.event) ->
      bump kinds (Flight.code_name ev.code);
      if ev.code = Flight.ev_drop then bump drops (Flight.drop_reason_name ev.a);
      Hashtbl.replace nodes ev.node ();
      if ev.ns < !t_min then t_min := ev.ns;
      if ev.ns > !t_max then t_max := ev.ns)
    events;
  Format.printf "%d events, %d nodes, %.3f ms span@." (List.length events)
    (Hashtbl.length nodes)
    (if !t_max >= !t_min then float_of_int (!t_max - !t_min) /. 1e6 else 0.0);
  print_counts kinds;
  if Hashtbl.length drops > 0 then begin
    Format.printf "drops by reason:@.";
    print_counts drops
  end

(* The membership timeline: one line per regular view, in install
   order, with the nodes that installed it (of its member count), the
   spread of their install times, and what ended it on each node: token
   loss, a gather (a join or a foreign ring's traffic), a crash, or
   nothing before the trace ends ("-"). *)
let print_timeline events =
  let ms ns = float_of_int ns /. 1e6 in
  (* ring -> (members, installs as (node, ns) newest first) *)
  let views = Hashtbl.create 16 and order = ref [] in
  (* node -> the ring of its current regular view, not yet ended *)
  let current = Hashtbl.create 16 in
  (* (ring, node) -> what ended it *)
  let ended = Hashtbl.create 16 in
  let finish node why (ev : Flight.event) =
    match Hashtbl.find_opt current node with
    | Some ring ->
        Hashtbl.remove current node;
        Hashtbl.replace ended (ring, node) (Printf.sprintf "%s@%.1f" why (ms ev.ns))
    | None -> ()
  in
  List.iter
    (fun (ev : Flight.event) ->
      if ev.code = Flight.ev_view_install && ev.a = 0 then begin
        (match Hashtbl.find_opt views ev.e with
        | Some (members, installs) ->
            Hashtbl.replace views ev.e (members, (ev.node, ev.ns) :: installs)
        | None ->
            order := ev.e :: !order;
            Hashtbl.replace views ev.e (ev.b, [ (ev.node, ev.ns) ]));
        Hashtbl.replace current ev.node ev.e
      end
      else if ev.code = Flight.ev_token_lost then finish ev.node "token_lost" ev
      else if ev.code = Flight.ev_phase && ev.a = Flight.phase_gather then
        finish ev.node "gather" ev
      else if ev.code = Flight.ev_crash then finish ev.node "crash" ev)
    events;
  if !order <> [] then begin
    Format.printf "membership timeline (regular views):@.";
    List.iter
      (fun ring ->
        let members, installs = Hashtbl.find views ring in
        let installs = List.rev installs in
        let times = List.map snd installs in
        let first = List.fold_left min max_int times
        and last = List.fold_left max min_int times in
        let r = Flight.unpack_ring ring in
        Format.printf "  [%d,%d] %d/%d installed from %.1f ms, spread %.1f ms; ended:%s@."
          r.rep r.ring_seq (List.length installs) members (ms first)
          (ms (last - first))
          (String.concat ""
             (List.map
                (fun (node, _) ->
                  Printf.sprintf " %d %s" node
                    (Option.value ~default:"-" (Hashtbl.find_opt ended (ring, node))))
                installs)))
      (List.rev !order)
  end

let run file chrome_out check rotation_node head =
  let events =
    try Flight.read_file file
    with Aring_obs.Json.Parse_error msg ->
      Format.eprintf "accelring_trace: %s: malformed trace (%s)@." file msg;
      exit 2
  in
  (match head with
  | Some n ->
      List.iteri (fun i ev -> if i < n then print_endline (Flight.to_line ev)) events
  | None ->
      summarize events;
      print_timeline events);
  (match chrome_out with
  | Some path ->
      Chrome_trace.write_file path events;
      Format.printf "chrome trace written to %s@." path
  | None -> ());
  (match rotation_node with
  | Some node ->
      let p = Rotation.create ~node () in
      List.iter (Trace.feed (Rotation.as_sink p)) events;
      Format.printf "%a@." Rotation.pp_summary (Rotation.summary p)
  | None -> ());
  if check then begin
    let c = Checker.create () in
    List.iter (Trace.feed (Checker.as_sink c)) events;
    Format.printf "%a@." Checker.pp c;
    if Checker.violation_count c > 0 then exit 1
  end

open Cmdliner

let file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE.jsonl" ~doc:"Recorded JSONL trace file.")

let chrome_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:"Convert to a Chrome trace-event file at $(docv).")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Run the EVS invariant checker over the trace; exit 1 on violations.")

let rotation_node =
  Arg.(
    value
    & opt (some int) None
    & info [ "rotation" ] ~docv:"NODE"
        ~doc:"Recompute the token-rotation profile anchored at $(docv).")

let head =
  Arg.(
    value
    & opt (some int) None
    & info [ "head" ] ~docv:"N"
        ~doc:"Print the first $(docv) events instead of the summary.")

let cmd =
  let doc = "Inspect, convert and check recorded Accelerated Ring traces" in
  Cmd.v
    (Cmd.info "accelring_trace" ~doc)
    Term.(const run $ file $ chrome_out $ check $ rotation_node $ head)

let () = exit (Cmd.eval cmd)
