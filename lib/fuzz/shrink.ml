type result = {
  schedule : Schedule.t;
  outcome : Runner.outcome;
  runs : int;
}

let ms n = n * 1_000_000

(* Remove element [i] of a list. *)
let remove_nth i l = List.filteri (fun j _ -> j <> i) l

let clamp_to_horizon horizon faults =
  List.filter_map
    (fun f ->
      match f with
      | Schedule.Crash { at_ns; _ } -> if at_ns < horizon then Some f else None
      | Schedule.Partition p ->
          if p.at_ns >= horizon then None
          else Some (Schedule.Partition { p with until_ns = min p.until_ns horizon })
      | Schedule.Loss_burst p ->
          if p.at_ns >= horizon then None
          else
            Some (Schedule.Loss_burst { p with until_ns = min p.until_ns horizon })
      | Schedule.Token_blackout p ->
          if p.at_ns >= horizon then None
          else
            Some
              (Schedule.Token_blackout { p with until_ns = min p.until_ns horizon }))
    faults

(* Remove node [gone] (the highest id) from the schedule: crashes of it
   vanish, it leaves partition islands; a partition whose island becomes
   empty or total no longer partitions anything and is dropped. *)
let drop_node (s : Schedule.t) =
  let c = s.config in
  let n = c.Schedule.n_nodes in
  if n <= 2 then None
  else
    let gone = n - 1 in
    let faults =
      List.filter_map
        (fun f ->
          match f with
          | Schedule.Crash { node; _ } when node = gone -> None
          | Schedule.Crash _ -> Some f
          | Schedule.Partition p ->
              let island = List.filter (fun i -> i <> gone) p.island in
              if island = [] || List.length island = n - 1 then None
              else Some (Schedule.Partition { p with island })
          | Schedule.Loss_burst _ | Schedule.Token_blackout _ -> Some f)
        s.faults
    in
    let tier_ids = List.filteri (fun i _ -> i < n - 1) c.Schedule.tier_ids in
    Some
      { s with Schedule.config = { c with Schedule.n_nodes = n - 1; tier_ids }; faults }

let shrink ?(bug = Bug.Clean) ?(max_runs = 200) (s0 : Schedule.t)
    (o0 : Runner.outcome) =
  match o0.Runner.failure with
  | None -> { schedule = s0; outcome = o0; runs = 0 }
  | Some f0 ->
      let target = Runner.failure_label f0 in
      let runs = ref 0 in
      let best = ref (s0, o0) in
      (* Try one candidate; adopt it when it reproduces the failure. *)
      let try_candidate cand =
        if !runs >= max_runs then false
        else begin
          incr runs;
          let o = Runner.run ~bug cand in
          match o.Runner.failure with
          | Some f when Runner.failure_label f = target ->
              best := (cand, o);
              true
          | _ -> false
        end
      in
      (* Pass 1: greedily drop faults until no single removal reproduces. *)
      let rec drop_faults () =
        let s, _ = !best in
        let k = Schedule.fault_count s in
        let dropped = ref false in
        let i = ref 0 in
        while (not !dropped) && !i < k && !runs < max_runs do
          if try_candidate { s with Schedule.faults = remove_nth !i s.faults }
          then dropped := true
          else incr i
        done;
        if !dropped && !runs < max_runs then drop_faults ()
      in
      drop_faults ();
      (* Pass 2: shorten the horizon while the failure persists. *)
      let rec shorten () =
        let s, _ = !best in
        let horizon = s.config.Schedule.horizon_ns in
        let next = horizon / 2 in
        if next >= ms 20 && !runs < max_runs then begin
          let cand =
            {
              s with
              Schedule.config = { s.config with Schedule.horizon_ns = next };
              faults = clamp_to_horizon next s.faults;
            }
          in
          if try_candidate cand then shorten ()
        end
      in
      shorten ();
      (* Pass 3: remove nodes from the top while the failure persists. *)
      let rec fewer_nodes () =
        let s, _ = !best in
        match drop_node s with
        | Some cand when !runs < max_runs ->
            if try_candidate cand then fewer_nodes ()
        | _ -> ()
      in
      fewer_nodes ();
      (* One more fault-dropping round: a shorter, smaller run may no
         longer need faults that were load-bearing before. *)
      drop_faults ();
      let schedule, outcome = !best in
      { schedule; outcome; runs = !runs }
