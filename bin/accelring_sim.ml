(* CLI: run one benchmark scenario on the simulated cluster and print the
   measured throughput/latency profile. Used for exploration and
   calibration; the full paper reproduction lives in bench/main.exe. *)

open Aring_ring
open Aring_sim
open Aring_harness

let tier_of_string = function
  | "library" -> Ok Profile.library
  | "daemon" -> Ok Profile.daemon
  | "spread" -> Ok Profile.spread
  | s -> Error (`Msg (Printf.sprintf "unknown tier %S" s))

let net_of_string = function
  | "1g" -> Ok Profile.gigabit
  | "10g" -> Ok Profile.ten_gigabit
  | s -> Error (`Msg (Printf.sprintf "unknown network %S (use 1g|10g)" s))

let service_of_string = function
  | "agreed" -> Ok Aring_wire.Types.Agreed
  | "safe" -> Ok Aring_wire.Types.Safe
  | "fifo" -> Ok Aring_wire.Types.Fifo
  | "causal" -> Ok Aring_wire.Types.Causal
  | s -> Error (`Msg (Printf.sprintf "unknown service %S" s))

let run nodes net tier protocol service payload rate pw gw aw seconds
    find_max seed verbose trace_file chrome_file check rotation adaptive spans
    =
  if verbose then Aring_util.Log.setup ~level:Logs.Info ();
  let checker = if check then Some (Aring_obs.Checker.create ()) else None in
  let trace =
    Trace_sinks.install ~trace_file ~chrome_file
      ~extra:(Option.to_list (Option.map Aring_obs.Checker.as_sink checker))
      ()
  in
  let params =
    match protocol with
    | "original" ->
        { Params.original with personal_window = pw; global_window = gw }
    | "accelerated" | "sequencer" | "ring-paxos" ->
        Params.accelerated ~personal_window:pw ~global_window:gw
          ~accelerated_window:aw ()
    | s -> failwith (Printf.sprintf "unknown protocol %S" s)
  in
  let spec =
    {
      Scenario.default_spec with
      label = Printf.sprintf "%s/%s/%s" tier.Profile.tier_name protocol
          (Aring_wire.Types.service_to_string service);
      n_nodes = nodes;
      net;
      tier;
      params;
      payload;
      service;
      offered_mbps = rate;
      measure_ns = int_of_float (seconds *. 1e9);
      seed = Int64.of_int seed;
      profile_rotation = rotation;
      controller =
        (if adaptive then
           Some (Aring_control.Controller.default_config ~aw_max:pw ())
         else None);
    }
  in
  (* Latency spans ride outside the trace stream: attach a collector for
     the run, report per-stage quantiles after. The baselines (sequencer,
     ring-paxos) bypass the engine's stage notes, so their report is
     empty. *)
  let span =
    if spans then Some (Aring_obs.Span.create ()) else None
  in
  Option.iter Aring_obs.Span.attach span;
  let result =
    match protocol with
    | "sequencer" ->
        let participants =
          Array.init nodes (fun me ->
              Aring_baselines.Sequencer.participant
                (Aring_baselines.Sequencer.create ~me ~n:nodes ()))
        in
        Scenario.run_custom spec ~participants
    | "ring-paxos" ->
        let participants =
          Array.init nodes (fun me ->
              Aring_baselines.Ring_paxos.participant
                (Aring_baselines.Ring_paxos.create ~me ~n:nodes ()))
        in
        Scenario.run_custom spec ~participants
    | _ ->
        if find_max then Scenario.find_max_throughput spec else Scenario.run spec
  in
  if spans then Aring_obs.Span.detach ();
  Trace_sinks.finish trace;
  Format.printf "%a@." Scenario.pp_result result;
  Option.iter
    (fun s ->
      match Aring_obs.Span.report s with
      | [] -> Format.printf "no latency spans recorded@."
      | stages -> Format.printf "%a@." Aring_obs.Span.pp_report stages)
    span;
  (match result.Scenario.rotation with
  | Some s -> Format.printf "%a@." Aring_obs.Rotation.pp_summary s
  | None -> ());
  match checker with
  | None -> ()
  | Some c ->
      Format.printf "%a@." Aring_obs.Checker.pp c;
      if Aring_obs.Checker.violation_count c > 0 then exit 1

open Cmdliner

let nodes = Arg.(value & opt int 8 & info [ "n"; "nodes" ] ~doc:"Cluster size.")

let net =
  Arg.(
    value
    & opt (conv (net_of_string, fun ppf n -> Fmt.string ppf n.Profile.net_name)) Profile.gigabit
    & info [ "net" ] ~doc:"Network profile: 1g or 10g.")

let tier =
  Arg.(
    value
    & opt (conv (tier_of_string, fun ppf t -> Fmt.string ppf t.Profile.tier_name)) Profile.daemon
    & info [ "tier" ] ~doc:"Implementation tier: library, daemon or spread.")

let protocol =
  Arg.(
    value & opt string "accelerated"
    & info [ "protocol" ]
        ~doc:"original, accelerated, sequencer or ring-paxos.")

let service =
  Arg.(
    value
    & opt (conv (service_of_string, fun ppf s -> Fmt.string ppf (Aring_wire.Types.service_to_string s)))
        Aring_wire.Types.Agreed
    & info [ "service" ] ~doc:"Delivery service: agreed, safe, fifo, causal.")

let payload =
  Arg.(value & opt int 1350 & info [ "payload" ] ~doc:"Payload bytes.")

let rate =
  Arg.(value & opt float 200.0 & info [ "rate" ] ~doc:"Offered load (Mbps).")

let pw = Arg.(value & opt int 50 & info [ "pw" ] ~doc:"Personal window.")
let gw = Arg.(value & opt int 400 & info [ "gw" ] ~doc:"Global window.")
let aw = Arg.(value & opt int 20 & info [ "aw" ] ~doc:"Accelerated window.")

let seconds =
  Arg.(value & opt float 0.4 & info [ "seconds" ] ~doc:"Measurement window (s).")

let find_max =
  Arg.(value & flag & info [ "find-max" ] ~doc:"Search the maximum sustained throughput.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")
let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Run the trace-driven invariant checker during the run; exit 1 on any violation.")

let rotation =
  Arg.(
    value & flag
    & info [ "rotation" ]
        ~doc:"Profile token rotations (rotation time, messages/round, post-token overlap).")

let adaptive =
  Arg.(
    value & flag
    & info [ "adaptive" ]
        ~doc:
          "Give every node an adaptive accelerated-window controller (AIMD, \
           capped at the personal window); --aw only sets the starting \
           window.")

let spans =
  Arg.(
    value & flag
    & info [ "spans" ]
        ~doc:
          "Collect end-to-end latency spans during the run and print \
           per-stage p50/p99/p99.9 (submit-wait, token-order, deliver, \
           end-to-end) after the profile.")

let cmd =
  let doc = "Simulate an Accelerated Ring cluster and measure its profile" in
  Cmd.v
    (Cmd.info "accelring_sim" ~doc)
    Term.(
      const run $ nodes $ net $ tier $ protocol $ service $ payload $ rate
      $ pw $ gw $ aw $ seconds $ find_max $ seed $ verbose
      $ Trace_sinks.trace_file $ Trace_sinks.chrome_file $ check $ rotation
      $ adaptive $ spans)

let () = exit (Cmd.eval cmd)
