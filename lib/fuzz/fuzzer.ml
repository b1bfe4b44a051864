module Prng = Aring_util.Prng

type config = {
  trials : int;
  seed : int64;
  max_nodes : int;
  rings : int;
  bug : Bug.t;
  app : Schedule.app;
  shrink : bool;
  max_shrink_runs : int;
  stop : unit -> bool;
  log : string -> unit;
}

let default_config =
  {
    trials = 200;
    seed = 1L;
    max_nodes = 8;
    rings = 1;
    bug = Bug.Clean;
    app = Schedule.Bare;
    shrink = true;
    max_shrink_runs = 200;
    stop = (fun () -> false);
    log = ignore;
  }

type trial = { index : int; schedule : Schedule.t; outcome : Runner.outcome }

type report = {
  trials_run : int;
  failure : trial option;
  shrunk : Shrink.result option;
}

let run_campaign cfg =
  let master = Prng.create ~seed:cfg.seed in
  let trials_run = ref 0 in
  let failure = ref None in
  (let i = ref 0 in
   while !failure = None && !i < cfg.trials && not (cfg.stop ()) do
     let seed = Prng.next_int64 master in
     let schedule =
       Schedule.generate ~app:cfg.app ~max_nodes:cfg.max_nodes ~rings:cfg.rings
         ~seed ()
     in
     let outcome = Runner.run ~bug:cfg.bug schedule in
     incr trials_run;
     (match outcome.Runner.failure with
     | None ->
         cfg.log
           (Printf.sprintf "trial %4d seed=%Ld pass (deliveries=%d views=%d)"
              !i seed outcome.Runner.deliveries outcome.Runner.views)
     | Some f ->
         cfg.log
           (Printf.sprintf "trial %4d seed=%Ld FAIL (%s)" !i seed
              (Runner.failure_label f));
         cfg.log (Format.asprintf "  %a" Schedule.pp schedule);
         cfg.log (Format.asprintf "  %a" Runner.pp_outcome outcome);
         failure := Some { index = !i; schedule; outcome });
     incr i
   done);
  let shrunk =
    match !failure with
    | Some t when cfg.shrink ->
        let r =
          Shrink.shrink ~bug:cfg.bug ~max_runs:cfg.max_shrink_runs t.schedule
            t.outcome
        in
        cfg.log
          (Printf.sprintf "shrunk: %d -> %d faults, %d -> %d nodes (%d runs)"
             (Schedule.fault_count t.schedule)
             (Schedule.fault_count r.Shrink.schedule)
             t.schedule.Schedule.config.Schedule.n_nodes
             r.Shrink.schedule.Schedule.config.Schedule.n_nodes r.Shrink.runs);
        cfg.log (Format.asprintf "  %a" Schedule.pp r.Shrink.schedule);
        Some r
    | _ -> None
  in
  { trials_run = !trials_run; failure = !failure; shrunk }
