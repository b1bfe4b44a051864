(* CLI: deterministic simulation fuzzer for the Accelerated Ring stack.

   Generates random fault schedules from a campaign seed, runs each on the
   discrete-event simulator with the EVS invariant checker attached, and
   on the first failure shrinks the schedule to a minimal reproducer.
   Output for a fixed seed is byte-for-byte reproducible (no wall-clock
   content); --time-budget can only cut a campaign short between trials,
   never change what an executed trial does. *)

open Aring_fuzz

(* Post-mortem artifacts for a failed run: the flight recorder's tail as
   JSONL (the recorder is reset at the start of every run, so it holds
   exactly the failing run's last records) and the rendered outcome —
   which, for a health-watchdog stall, carries the full per-node
   phase-cycle report — as a sibling .report.txt. *)
let dump_flight ~path outcome =
  Aring_obs.Flight.dump_jsonl_file path;
  let report_path = path ^ ".report.txt" in
  Out_channel.with_open_text report_path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "%a@." Runner.pp_outcome outcome);
  Printf.printf "flight recorder: %d records -> %s (+ %s)\n"
    (Aring_obs.Flight.stored ()) path report_path

let run trials seed max_nodes rings bug_name adaptive app_name shrink
    max_shrink_runs time_budget replay_path trace_file corpus_dir flight_dump
    quiet =
  if rings < 1 then begin
    prerr_endline "--rings must be >= 1";
    exit 2
  end;
  let bug =
    match Bug.of_string bug_name with
    | Ok b -> b
    | Error e ->
        prerr_endline e;
        exit 2
  in
  let app =
    match Runner.app_of_string app_name with
    | Ok a -> a
    | Error e ->
        prerr_endline e;
        exit 2
  in
  (* Recovery_flood is a construction flag of the bare ring's members;
     any other stack would silently run it as clean. *)
  let flood_misuse () =
    prerr_endline
      "--bug recovery-flood runs only on the bare single ring (--app none, \
       --rings 1)";
    exit 2
  in
  if bug = Bug.Recovery_flood && (app <> Runner.App_none || rings > 1) then
    flood_misuse ();
  let log line = if not quiet then print_endline line in
  match replay_path with
  | Some path ->
      (* Replay one schedule file, or every *.json entry of a directory. *)
      let entries =
        if Sys.is_directory path then Corpus.load_dir path
        else [ (Filename.basename path, Corpus.load_file path) ]
      in
      if entries = [] then begin
        Printf.printf "no corpus entries under %s\n" path;
        exit 0
      end;
      let trace_oc = Option.map open_out trace_file in
      let extra_sink = Option.map Aring_obs.Trace_json.jsonl_sink trace_oc in
      let failed = ref 0 in
      List.iter
        (fun (name, schedule) ->
          let outcome =
            try Fuzzer.replay ~bug ~adaptive ~app ?extra_sink schedule
            with Invalid_argument _ when bug = Bug.Recovery_flood ->
              flood_misuse ()
          in
          Format.printf "%s: %a@." name Runner.pp_outcome outcome;
          if not (Runner.passed outcome) then begin
            (* Dump the first failure: the recorder holds this run's tail
               until the next replay overwrites it. *)
            (match flight_dump with
            | Some path when !failed = 0 -> dump_flight ~path outcome
            | _ -> ());
            incr failed
          end)
        entries;
      Option.iter close_out trace_oc;
      Printf.printf "replayed %d entries, %d failed\n" (List.length entries)
        !failed;
      exit (if !failed > 0 then 1 else 0)
  | None ->
      let stop =
        match time_budget with
        | None -> fun () -> false
        | Some seconds ->
            let deadline = Unix.gettimeofday () +. seconds in
            fun () -> Unix.gettimeofday () > deadline
      in
      let cfg =
        {
          Fuzzer.trials;
          seed = Int64.of_int seed;
          max_nodes;
          rings;
          bug;
          adaptive;
          app;
          shrink;
          max_shrink_runs;
          stop;
          log;
        }
      in
      let report = Fuzzer.run_campaign cfg in
      (match report.Fuzzer.failure with
      | None ->
          Printf.printf "campaign seed=%d: %d trials, no failures\n" seed
            report.Fuzzer.trials_run;
          exit 0
      | Some t ->
          let reproducer =
            match report.Fuzzer.shrunk with
            | Some r -> r.Shrink.schedule
            | None -> t.Fuzzer.schedule
          in
          Printf.printf "campaign seed=%d: failure at trial %d\n" seed
            t.Fuzzer.index;
          Printf.printf "reproducer: %s\n" (Schedule.to_string reproducer);
          (match corpus_dir with
          | Some dir ->
              let label =
                match t.Fuzzer.outcome.Runner.failure with
                | Some f -> Runner.failure_label f
                | None -> "unknown"
              in
              let path = Corpus.save ~dir ~label reproducer in
              Printf.printf "saved to %s\n" path
          | None -> ());
          (match flight_dump with
          | Some path ->
              (* The recorder holds whichever run executed last (usually a
                 shrink probe); re-run the reproducer once so the dump
                 matches the schedule printed above. *)
              let outcome = Fuzzer.replay ~bug ~adaptive ~app reproducer in
              dump_flight ~path outcome
          | None -> ());
          exit 1)

open Cmdliner

let trials =
  Arg.(value & opt int 200 & info [ "trials" ] ~doc:"Maximum schedules to try.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign master seed.")

let max_nodes =
  Arg.(
    value & opt int 8
    & info [ "max-nodes" ]
        ~doc:
          "Cluster-size cap for generated schedules. The default (8) \
           preserves the historical seed-to-schedule mapping; larger caps \
           (e.g. 32) stress membership recovery at scale.")

let rings =
  Arg.(
    value & opt int 1
    & info [ "rings" ]
        ~doc:
          "Ordering rings per generated schedule. With more than 1, every \
           trial runs the multi-ring sharded KV deployment: ring-scoped \
           partitions and token blackouts, a cross-shard mcas workload, \
           and per-ring convergence plus cross-shard atomicity oracles. \
           The default (1) preserves the historical seed-to-schedule \
           mapping exactly.")

let bug_name =
  Arg.(
    value & opt string "clean"
    & info [ "bug" ]
        ~doc:
          "Inject a known protocol defect: clean, skip-delivery, \
           skip-retransmission, kv-skip-apply or recovery-flood. Used to \
           validate the fuzzer itself. recovery-flood runs only on the bare \
           single ring (--app none, --rings 1); elsewhere it exits 2.")

let adaptive =
  Arg.(
    value & flag
    & info [ "adaptive" ]
        ~doc:
          "Run every node with the adaptive accelerated-window controller \
           enabled, fuzzing the protocol while the per-node window moves. \
           Trace hashes differ from static-window runs.")

let app_name =
  Arg.(
    value & opt string "none"
    & info [ "app" ]
        ~doc:
          "Run an application workload on top of every schedule: none, or \
           kv (a replicated key-value store per node whose end-to-end \
           consistency oracle becomes a third safety check). Trace hashes \
           differ from app-free runs.")

let shrink =
  Arg.(
    value & opt bool true
    & info [ "shrink" ] ~doc:"Minimize the first failing schedule.")

let max_shrink_runs =
  Arg.(
    value & opt int 200
    & info [ "max-shrink-runs" ] ~doc:"Execution budget for shrinking.")

let time_budget =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-budget" ] ~docv:"SECONDS"
        ~doc:
          "Stop starting new trials after $(docv) wall-clock seconds (the \
           trial in flight completes).")

let replay_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"PATH"
        ~doc:
          "Replay a saved schedule (a reproducer file, or every *.json in \
           a corpus directory) instead of fuzzing.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "With --replay: also dump the full JSONL trace stream of the \
           replayed run(s) to $(docv), for offline analysis with \
           accelring_trace.")

let corpus_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Save the (shrunk) reproducer of a failure under $(docv).")

let flight_dump =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"FILE"
        ~doc:
          "On failure, dump the always-on flight recorder (the last ~512 \
           protocol events per node of the failing run) as JSONL to \
           $(docv), plus the rendered outcome — including the health \
           watchdog's phase-cycle report when it fired — to \
           $(docv).report.txt. With --replay, the first failing entry is \
           dumped; after a campaign, the reproducer is re-run once so the \
           dump matches it.")

let quiet =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-trial log lines.")

let cmd =
  let doc = "Fuzz the Accelerated Ring stack with random fault schedules" in
  Cmd.v
    (Cmd.info "accelring_fuzz" ~doc)
    Term.(
      const run $ trials $ seed $ max_nodes $ rings $ bug_name $ adaptive
      $ app_name $ shrink
      $ max_shrink_runs $ time_budget $ replay_path $ trace_file $ corpus_dir
      $ flight_dump $ quiet)

let () = exit (Cmd.eval cmd)
