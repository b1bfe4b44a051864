(* Adaptive accelerated-window controller tests: the AIMD rule's unit
   behaviour, monotonicity under congestion, bounds clamping,
   decision determinism, and the end-to-end hook — a scenario run with
   controllers attached still delivers, adapts the window inside its
   bounds, and a Member-level cluster with controllers keeps ordering
   through a membership change. *)

open Aring_control
open Aring_ring
open Aring_sim

let check = Alcotest.check

(* A controller for a node with personal window [pw] starting at [init]. *)
let ctl ?(pw = 50) init =
  Controller.create ~personal_window:pw ~accelerated_window:init

let quiet = { Controller.retrans = 0; backlog = 0 }

(* ------------------------------------------------------------------ *)
(* Unit behaviour of the AIMD rule                                     *)

let test_backlog_grows_window () =
  let c = ctl 10 in
  let d = Controller.observe c { quiet with backlog = 100 } in
  check Alcotest.int "additive increase" 12 d.Controller.aw_after;
  check Alcotest.bool "not congested" false d.Controller.congested;
  check Alcotest.int "window view agrees" 12 (Controller.window c);
  (* The personal window caps the increase. *)
  let c = ctl 49 in
  check Alcotest.int "capped at the personal window" 50
    (Controller.observe c { quiet with backlog = 100 }).Controller.aw_after;
  check Alcotest.int "stays at the cap" 50
    (Controller.observe c { quiet with backlog = 100 }).Controller.aw_after;
  check Alcotest.int "start clamped to the personal window" 30
    (Controller.window (ctl ~pw:30 99))

let test_congestion_shrinks_window () =
  let c = ctl 40 in
  let d = Controller.observe c { retrans = 3; backlog = 500 } in
  check Alcotest.bool "congested" true d.Controller.congested;
  check Alcotest.int "multiplicative decrease despite backlog" 20
    d.Controller.aw_after;
  let c = ctl 1 in
  check Alcotest.int "halving floors at zero" 0
    (Controller.observe c { quiet with retrans = 1 }).Controller.aw_after

(* The idle decay waits for 8 consecutive quiet rotations. *)
let test_idle_decays_window () =
  let c = ctl 20 in
  for k = 1 to 7 do
    check Alcotest.int
      (Printf.sprintf "idle rotation %d holds" k)
      20
      (Controller.observe c { quiet with backlog = 1 }).Controller.aw_after
  done;
  check Alcotest.int "8th idle rotation decays by one" 19
    (Controller.observe c { quiet with backlog = 1 }).Controller.aw_after;
  (* A backlog in balance with the window holds it steady. *)
  let c = ctl 20 in
  for _ = 1 to 20 do
    check Alcotest.int "steady" 20
      (Controller.observe c { quiet with backlog = 15 }).Controller.aw_after
  done

let test_decay_needs_idle_streak () =
  let c = ctl 20 in
  let idle () =
    (Controller.observe c { quiet with backlog = 1 }).Controller.aw_after
  in
  let idle_for n = for _ = 1 to n do ignore (idle ()) done in
  idle_for 7;
  check Alcotest.int "8th idle decays" 19 (idle ());
  idle_for 7;
  check Alcotest.int "the decay restarts the streak" 19 (Controller.window c);
  (* 15 neither exceeds 19 nor is under half of it: a balanced rotation. *)
  ignore (Controller.observe c { quiet with backlog = 15 });
  idle_for 7;
  check Alcotest.int "a balanced rotation restarts it too" 19
    (Controller.window c);
  check Alcotest.int "8th idle after it decays" 18 (idle ())

(* ------------------------------------------------------------------ *)
(* Properties: monotonicity, clamping, determinism                     *)

let signal_gen =
  QCheck.Gen.(
    map
      (fun (retrans, backlog) -> { Controller.retrans; backlog })
      (pair (int_bound 20) (int_bound 2000)))

let signals_arb =
  QCheck.make
    ~print:(fun ss ->
      String.concat ";"
        (List.map
           (fun (s : Controller.signals) ->
             Printf.sprintf "(rt=%d bk=%d)" s.retrans s.backlog)
           ss))
    QCheck.Gen.(list_size (int_range 1 100) signal_gen)

let prop_congestion_never_increases =
  QCheck.Test.make ~count:200
    ~name:"a congested rotation never raises the window"
    signals_arb
    (fun ss ->
      let c = ctl 25 in
      List.for_all
        (fun s ->
          let d = Controller.observe c s in
          (not d.Controller.congested)
          || d.Controller.aw_after <= d.Controller.aw_before)
        ss)

let prop_sustained_congestion_monotone =
  QCheck.Test.make ~count:100
    ~name:"under sustained congestion the window is non-increasing"
    signals_arb
    (fun ss ->
      let c = ctl 50 in
      (* Force every signal to carry congestion evidence. *)
      let ss = List.map (fun s -> { s with Controller.retrans = 1 + s.Controller.retrans }) ss in
      let rec loop prev = function
        | [] -> true
        | s :: rest ->
            let d = Controller.observe c s in
            d.Controller.aw_after <= prev && loop d.Controller.aw_after rest
      in
      loop 50 ss)

let prop_window_stays_in_bounds =
  QCheck.Test.make ~count:200 ~name:"window clamps to [0, personal_window]"
    QCheck.(pair signals_arb (pair (int_range 1 60) (int_range 0 60)))
    (fun (ss, (pw, init)) ->
      let c = ctl ~pw (min pw init) in
      List.for_all
        (fun s ->
          let d = Controller.observe c s in
          d.Controller.aw_after >= 0 && d.Controller.aw_after <= pw)
        ss)

let prop_decisions_deterministic =
  QCheck.Test.make ~count:100
    ~name:"identical signal sequences yield identical decisions"
    signals_arb
    (fun ss ->
      let trajectory () =
        let c = ctl 20 in
        List.map
          (fun s ->
            let d = Controller.observe c s in
            (d.Controller.aw_before, d.Controller.aw_after, d.Controller.congested))
          ss
      in
      trajectory () = trajectory ())

(* ------------------------------------------------------------------ *)
(* End-to-end: controller attached to a simulated cluster              *)

let test_scenario_run_with_controller () =
  let params = Params.accelerated ~personal_window:50 ~global_window:400 () in
  let spec =
    {
      Aring_harness.Scenario.default_spec with
      label = "adaptive-smoke";
      n_nodes = 4;
      params;
      offered_mbps = 150.0;
      warmup_ns = 20_000_000;
      measure_ns = 80_000_000;
      adaptive = true;
    }
  in
  let r = Aring_harness.Scenario.run spec in
  check Alcotest.bool "delivers most of the load" true
    (r.Aring_harness.Scenario.delivered_mbps >= 0.9 *. 150.0);
  check Alcotest.bool "controller made decisions" true
    (Aring_obs.Metrics.counter_value r.Aring_harness.Scenario.metrics
       "control.decisions"
    > 0)

let test_step_load_produces_phases () =
  let spec =
    {
      Aring_harness.Scenario.default_spec with
      label = "step-phases";
      n_nodes = 4;
      offered_mbps = 100.0;
      warmup_ns = 20_000_000;
      measure_ns = 60_000_000;
      load =
        Aring_harness.Scenario.step_load ~low:100.0 ~high:300.0
          ~at_ns:40_000_000 ~until_ns:60_000_000;
    }
  in
  let r = Aring_harness.Scenario.run spec in
  let phases = r.Aring_harness.Scenario.phases in
  check Alcotest.int "three phases inside the window" 3 (List.length phases);
  (match phases with
  | [ a; b; c ] ->
      check (Alcotest.float 0.01) "phase 1 offered" 100.0
        a.Aring_harness.Scenario.p_offered_mbps;
      check (Alcotest.float 0.01) "phase 2 offered" 300.0
        b.Aring_harness.Scenario.p_offered_mbps;
      check (Alcotest.float 0.01) "phase 3 offered" 100.0
        c.Aring_harness.Scenario.p_offered_mbps;
      List.iter
        (fun (p : Aring_harness.Scenario.phase) ->
          check Alcotest.bool "each phase delivered something" true
            (p.p_deliveries > 0))
        phases
  | _ -> Alcotest.fail "wrong phase count");
  check Alcotest.int "phase deliveries partition the total"
    r.Aring_harness.Scenario.deliveries
    (List.fold_left
       (fun acc (p : Aring_harness.Scenario.phase) -> acc + p.p_deliveries)
       0 phases)

let test_member_cluster_with_controller_survives_crash () =
  (* Controllers at the Member level, built by the [adaptive] switch:
     each window starts at the accelerated window and stays within the
     personal window, the learned window survives a reformation, and
     ordering holds throughout. *)
  let ms n = n * 1_000_000 in
  let params =
    {
      (Params.accelerated ~personal_window:50 ~global_window:400 ()) with
      token_loss_ns = ms 50;
      token_retransmit_ns = ms 10;
      join_retransmit_ns = ms 20;
      consensus_timeout_ns = ms 100;
      merge_probe_ns = ms 80;
    }
  in
  let n = 4 in
  let members =
    Array.init n (fun me ->
        Member.create ~params ~me
          ~initial_ring:(Array.init n (fun i -> i))
          ~adaptive:true ())
  in
  let sim =
    Netsim.create ~net:Profile.gigabit
      ~tiers:(Array.make n Profile.library)
      ~participants:(Array.map Member.participant members)
      ~seed:11L ()
  in
  let deliveries = Array.init n (fun _ -> ref []) in
  Netsim.on_deliver sim (fun ~at ~now:_ (d : Aring_wire.Message.data) ->
      deliveries.(at) := Bytes.to_string d.payload :: !(deliveries.(at)));
  for k = 1 to 60 do
    Netsim.call_at sim ~at:(k * 400_000) (fun () ->
        Member.submit members.(k mod n) Aring_wire.Types.Agreed
          (Bytes.of_string (Printf.sprintf "m%d" k)))
  done;
  Netsim.call_at sim ~at:(ms 12) (fun () -> Netsim.crash sim 3);
  (* Every window change, node by node, oldest first. *)
  let changes = Array.make n [] in
  let sink =
    Aring_obs.Trace.fn_sink (fun (e : Aring_obs.Trace.event) ->
        match e.kind with
        | Control { aw_before; aw_after; _ } ->
            changes.(e.node) <- (aw_before, aw_after) :: changes.(e.node)
        | _ -> ())
  in
  Aring_obs.Trace.with_sink sink (fun () -> Netsim.run_until sim (ms 2000));
  let pw = params.Params.personal_window in
  Array.iteri
    (fun i cs ->
      match List.rev cs with
      | [] -> Alcotest.failf "node %d changed its window" i
      | (first, _) :: _ as cs ->
          check Alcotest.int
            (Printf.sprintf "node %d starts at the accelerated window" i)
            params.Params.accelerated_window first;
          List.iter
            (fun (before, after) ->
              if before < 0 || before > pw || after < 0 || after > pw then
                Alcotest.failf "node %d window %d -> %d outside [0, %d]" i
                  before after pw)
            cs)
    changes;
  (* Survivors converge operational and agree on the delivery stream. *)
  let alive = [ 0; 1; 2 ] in
  List.iter
    (fun i ->
      check Alcotest.string
        (Printf.sprintf "survivor %d operational" i)
        "operational"
        (Member.state_name members.(i)))
    alive;
  let streams = List.map (fun i -> List.rev !(deliveries.(i))) alive in
  (match streams with
  | s0 :: rest ->
      List.iter
        (fun s -> check Alcotest.bool "streams identical" true (s = s0))
        rest
  | [] -> assert false);
  (* Every survivor's controller saw rotations in the reformed ring too. *)
  List.iter
    (fun i ->
      match Member.node members.(i) with
      | None -> Alcotest.fail "operational member has a node"
      | Some node -> (
          match Node.controller node with
          | None -> Alcotest.fail "controller attached"
          | Some c ->
              check Alcotest.bool
                (Printf.sprintf "survivor %d window within bounds" i)
                true
                (Controller.window c >= 0 && Controller.window c <= pw);
              check Alcotest.int
                (Printf.sprintf "survivor %d engine runs the learned window" i)
                (Controller.window c)
                (Engine.accelerated_window (Node.engine node))))
    alive

let test_engine_window_setter_clamps () =
  let params = Params.accelerated ~personal_window:30 ~accelerated_window:10 () in
  let eng =
    Engine.create ~params
      ~ring_id:{ Aring_wire.Types.rep = 0; ring_seq = 1 }
      ~ring:[| 0; 1 |] ~me:0
  in
  check Alcotest.int "starts at params" 10 (Engine.accelerated_window eng);
  Engine.set_accelerated_window eng 99;
  check Alcotest.int "clamped to personal window" 30
    (Engine.accelerated_window eng);
  Engine.set_accelerated_window eng (-5);
  check Alcotest.int "clamped to zero" 0 (Engine.accelerated_window eng)

let test_engine_round_signals_captured () =
  let params = Params.accelerated ~personal_window:10 ~accelerated_window:5 () in
  let rid : Aring_wire.Types.ring_id = { rep = 0; ring_seq = 1 } in
  let eng = Engine.create ~params ~ring_id:rid ~ring:[| 0; 1 |] ~me:0 in
  check Alcotest.bool "no signals before first round" true
    (Engine.last_round_signals eng = None);
  for i = 1 to 25 do
    ignore
      (Engine.handle eng
         (Engine.Submit (Aring_wire.Types.Agreed, Bytes.make 8 (Char.chr i))))
  done;
  ignore (Engine.handle eng (Engine.Token_received (Engine.initial_token rid)));
  match Engine.last_round_signals eng with
  | None -> Alcotest.fail "signals after a round"
  | Some s ->
      check Alcotest.int "round" 1 s.Engine.sr_round;
      check Alcotest.int "backlog as the token arrived" 25 s.Engine.sr_backlog;
      check Alcotest.int "no retransmissions" 0 s.Engine.sr_retrans

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    ("backlog grows window", `Quick, test_backlog_grows_window);
    ("congestion shrinks window", `Quick, test_congestion_shrinks_window);
    ("idle decays window", `Quick, test_idle_decays_window);
    ("decay needs an idle streak", `Quick, test_decay_needs_idle_streak);
    qtest prop_congestion_never_increases;
    qtest prop_sustained_congestion_monotone;
    qtest prop_window_stays_in_bounds;
    qtest prop_decisions_deterministic;
    ("engine window setter clamps", `Quick, test_engine_window_setter_clamps);
    ("engine round signals captured", `Quick, test_engine_round_signals_captured);
    ("scenario run with controller", `Quick, test_scenario_run_with_controller);
    ("step load produces phases", `Quick, test_step_load_produces_phases);
    ("member cluster with controller survives crash", `Quick,
      test_member_cluster_with_controller_survives_crash);
  ]
