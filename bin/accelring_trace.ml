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
  | None -> summarize events);
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
