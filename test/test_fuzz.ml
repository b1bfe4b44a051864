(* Tests for the deterministic simulation fuzzer: schedule generation and
   serialization, runner determinism (the Netsim regression test — equal
   seeds must produce bit-equal trace streams), seeded-bug detection with
   shrinking, and replay of the committed corpus. *)

open Aring_fuzz

(* A small hand-built schedule with both fault kinds that exercise the
   drop predicate; converges in well under a simulated second. *)
let small_schedule seed =
  {
    Schedule.seed;
    config =
      {
        Schedule.n_nodes = 3;
        rings = 1;
        tier_ids = [ 1; 1; 1 ];
        ten_gig = true;
        base_loss_permille = 10;
        small_switch_buffer = false;
        accelerated_window = 5;
        personal_window = 20;
        aggressive = true;
        max_seq_gap = 400;
        payload = 64;
        submit_gap_ns = 1_000_000;
        safe_permille = 100;
        horizon_ns = 60_000_000;
        drain_ns = 2_000_000_000;
        liveness = true;
      };
    faults =
      [
        Schedule.Token_blackout
          { at_ns = 10_000_000; until_ns = 25_000_000; ring = -1 };
        Schedule.Partition
          {
            at_ns = 30_000_000;
            until_ns = 50_000_000;
            island = [ 0 ];
            ring = -1;
          };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Schedule generation and serialization                               *)

let test_generate_deterministic () =
  let a = Schedule.generate ~seed:42L () in
  let b = Schedule.generate ~seed:42L () in
  Alcotest.(check string)
    "same seed, same schedule" (Schedule.to_string a) (Schedule.to_string b);
  let c = Schedule.generate ~seed:43L () in
  Alcotest.(check bool)
    "different seed, different schedule" false
    (Schedule.to_string a = Schedule.to_string c)

let test_generate_well_formed () =
  for seed = 0 to 49 do
    let s = Schedule.generate ~seed:(Int64.of_int seed) () in
    let c = s.Schedule.config in
    Alcotest.(check bool) "node count" true (c.Schedule.n_nodes >= 2);
    Alcotest.(check int)
      "one tier per node" c.Schedule.n_nodes
      (List.length c.Schedule.tier_ids);
    (* The generated parameters must satisfy the engine's own validator. *)
    (match Aring_ring.Params.validate (Schedule.params c) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: invalid params: %s" seed e);
    (* Every fault window must close inside the horizon, so the network
       is whole when the drain starts. *)
    List.iter
      (fun f ->
        let at, until = Schedule.fault_window f in
        Alcotest.(check bool) "window starts in run" true (at >= 0);
        Alcotest.(check bool)
          "window closes before horizon" true
          (until <= c.Schedule.horizon_ns))
      s.Schedule.faults
  done

let prop_schedule_roundtrip =
  QCheck.Test.make ~count:100 ~name:"schedule JSON round-trips exactly"
    QCheck.int64 (fun seed ->
      let s = Schedule.generate ~seed () in
      Schedule.of_string (Schedule.to_string s) = s)

(* ------------------------------------------------------------------ *)
(* Runner determinism (Netsim regression: same seed + same schedule ⇒
   identical trace event stream)                                       *)

let test_runner_deterministic () =
  let s = small_schedule 7L in
  let a = Runner.run s in
  let b = Runner.run s in
  Alcotest.(check bool) "clean schedule passes" true (Runner.passed a);
  Alcotest.(check int64) "identical trace hash" a.Runner.trace_hash
    b.Runner.trace_hash;
  Alcotest.(check int) "identical delivery count" a.Runner.deliveries
    b.Runner.deliveries;
  Alcotest.(check int) "identical stop time" a.Runner.end_ns b.Runner.end_ns;
  let c = Runner.run (small_schedule 8L) in
  Alcotest.(check bool)
    "different seed diverges" false
    (a.Runner.trace_hash = c.Runner.trace_hash)

let test_clean_schedule_delivers () =
  let o = Runner.run (small_schedule 7L) in
  Alcotest.(check bool) "passed" true (Runner.passed o);
  Alcotest.(check bool) "delivered workload" true (o.Runner.deliveries > 100);
  (* The partition forces at least one re-formation and one re-merge. *)
  Alcotest.(check bool) "membership churned" true (o.Runner.views > 3)

(* ------------------------------------------------------------------ *)
(* Seeded bugs: the fuzzer must find them and shrink the reproducer    *)

let quiet_campaign ~bug ~shrink =
  {
    Fuzzer.default_config with
    Fuzzer.trials = 200;
    seed = 1L;
    bug;
    shrink;
    max_shrink_runs = 100;
  }

let test_finds_skip_delivery () =
  let report =
    Fuzzer.run_campaign
      (quiet_campaign ~bug:(Bug.Skip_delivery { node = 0; every = 10 })
         ~shrink:true)
  in
  match (report.Fuzzer.failure, report.Fuzzer.shrunk) with
  | None, _ -> Alcotest.fail "skip-delivery bug not found within 200 trials"
  | Some t, Some r ->
      (match t.Fuzzer.outcome.Runner.failure with
      | Some (Runner.Invariant v) ->
          Alcotest.(check bool)
            "checker recorded violations" true
            (v.Aring_obs.Checker.violation_total > 0)
      | _ -> Alcotest.fail "expected an invariant violation");
      Alcotest.(check bool)
        "shrunk to <= 5 faults" true
        (Schedule.fault_count r.Shrink.schedule <= 5);
      Alcotest.(check bool)
        "shrunk schedule still fails" false
        (Runner.passed r.Shrink.outcome)
  | Some _, None -> Alcotest.fail "shrinking was requested but did not run"

let test_finds_skip_retransmission () =
  let report =
    Fuzzer.run_campaign (quiet_campaign ~bug:Bug.Skip_retransmission ~shrink:false)
  in
  match report.Fuzzer.failure with
  | None ->
      Alcotest.fail "skip-retransmission bug not found within 200 trials"
  | Some _ -> ()

(* ------------------------------------------------------------------ *)
(* Corpus replay: every committed reproducer must stay green           *)

(* [corpus/trace_hashes.txt] pins the FNV-1a trace hash of every committed
   schedule replayed with a static window, [corpus/trace_hashes_adaptive.txt]
   with the adaptive controller on every node. Lines are
   "<basename> <16-hex-digit hash>"; '#' starts a comment. *)
let committed_hashes path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then loop acc
            else
              Scanf.sscanf line "%s %Lx" (fun name h -> loop ((name, h) :: acc))
      in
      loop [])

let check_corpus_against ~adaptive oracle_path =
  let entries = Corpus.load_dir "corpus" in
  Alcotest.(check bool) "corpus is not empty" true (List.length entries >= 3);
  let oracle = committed_hashes oracle_path in
  Alcotest.(check int)
    "every corpus entry has a committed hash" (List.length entries)
    (List.length oracle);
  List.iter
    (fun (name, schedule) ->
      let o = Fuzzer.replay ~adaptive schedule in
      if not (Runner.passed o) then
        Alcotest.failf "corpus entry %s regressed: %s" name
          (Format.asprintf "%a" Runner.pp_outcome o);
      match List.assoc_opt (Filename.basename name) oracle with
      | None -> Alcotest.failf "no committed trace hash for %s" name
      | Some expected ->
          if o.Runner.trace_hash <> expected then
            Alcotest.failf
              "corpus entry %s trace drifted: hash %Lx, committed %Lx" name
              o.Runner.trace_hash expected)
    entries

let test_corpus_replays_green () =
  check_corpus_against ~adaptive:false "corpus/trace_hashes.txt"

(* The same reproducers with the adaptive controller live: the fault
   schedules must still pass every invariant while the per-node window
   moves, and the controller's decisions must be deterministic (pinned
   hashes). *)
let test_corpus_replays_green_adaptive () =
  check_corpus_against ~adaptive:true "corpus/trace_hashes_adaptive.txt"

(* ------------------------------------------------------------------ *)
(* KV app mode: determinism, seeded-bug self-test, corpus pinning      *)

let test_kv_runner_deterministic () =
  let s = small_schedule 7L in
  let a = Runner.run ~app:Runner.App_kv s in
  let b = Runner.run ~app:Runner.App_kv s in
  Alcotest.(check bool)
    "clean kv schedule passes" true (Runner.passed a);
  Alcotest.(check int64) "identical kv trace hash" a.Runner.trace_hash
    b.Runner.trace_hash;
  let raw = Runner.run s in
  Alcotest.(check bool)
    "kv traffic changes the trace" false
    (a.Runner.trace_hash = raw.Runner.trace_hash)

let test_finds_kv_skip_apply () =
  let report =
    Fuzzer.run_campaign
      {
        (quiet_campaign
           ~bug:(Bug.Kv_skip_apply { node = 0; every = 7 })
           ~shrink:true)
        with
        Fuzzer.app = Runner.App_kv;
      }
  in
  match (report.Fuzzer.failure, report.Fuzzer.shrunk) with
  | None, _ -> Alcotest.fail "kv-skip-apply bug not found within 200 trials"
  | Some t, Some _ ->
      Alcotest.(check int) "caught on the very first schedule" 0 t.Fuzzer.index;
      (match t.Fuzzer.outcome.Runner.failure with
      | Some (Runner.Kv_violation { total; _ }) ->
          Alcotest.(check bool) "oracle recorded violations" true (total > 0)
      | Some f ->
          Alcotest.failf "expected a kv_violation, got %s"
            (Runner.failure_label f)
      | None -> Alcotest.fail "expected a kv_violation")
  | Some _, None -> Alcotest.fail "shrinking was requested but did not run"

(* The protocol-level seeded bug must still be caught with the KV app
   stacked on top: the trace checker watches the same engine underneath. *)
let test_finds_skip_delivery_under_kv () =
  let report =
    Fuzzer.run_campaign
      {
        (quiet_campaign
           ~bug:(Bug.Skip_delivery { node = 0; every = 10 })
           ~shrink:false)
        with
        Fuzzer.app = Runner.App_kv;
      }
  in
  match report.Fuzzer.failure with
  | None -> Alcotest.fail "skip-delivery bug not found under the kv app"
  | Some t -> (
      match t.Fuzzer.outcome.Runner.failure with
      | Some (Runner.Invariant _) | Some (Runner.Kv_violation _) -> ()
      | Some f ->
          Alcotest.failf "expected invariant or kv_violation, got %s"
            (Runner.failure_label f)
      | None -> Alcotest.fail "expected a failure")

(* [corpus/kv/trace_hashes_kv.txt] lines are
   "<basename> <clean hash> <adaptive hash>"; '#' starts a comment. *)
let committed_kv_hashes path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then loop acc
            else
              Scanf.sscanf line "%s %Lx %Lx" (fun name h ha ->
                  loop ((name, (h, ha)) :: acc))
      in
      loop [])

(* Every committed KV reproducer must (a) replay green without the bug,
   at exactly the pinned trace hashes with and without the adaptive
   controller, and (b) still fail when the bug that minted it is
   re-planted — the corpus stays a working self-test, not a fossil. *)
let test_kv_corpus_replays_green () =
  let entries = Corpus.load_dir "corpus/kv" in
  Alcotest.(check bool) "kv corpus is not empty" true (entries <> []);
  let oracle = committed_kv_hashes "corpus/kv/trace_hashes_kv.txt" in
  Alcotest.(check int)
    "every kv corpus entry has committed hashes" (List.length entries)
    (List.length oracle);
  List.iter
    (fun (name, schedule) ->
      let clean = Fuzzer.replay ~app:Runner.App_kv schedule in
      if not (Runner.passed clean) then
        Alcotest.failf "kv corpus entry %s regressed: %s" name
          (Format.asprintf "%a" Runner.pp_outcome clean);
      let adaptive = Fuzzer.replay ~adaptive:true ~app:Runner.App_kv schedule in
      if not (Runner.passed adaptive) then
        Alcotest.failf "kv corpus entry %s regressed (adaptive): %s" name
          (Format.asprintf "%a" Runner.pp_outcome adaptive);
      (match List.assoc_opt (Filename.basename name) oracle with
      | None -> Alcotest.failf "no committed trace hashes for %s" name
      | Some (h, ha) ->
          if clean.Runner.trace_hash <> h then
            Alcotest.failf "kv entry %s trace drifted: %Lx, committed %Lx"
              name clean.Runner.trace_hash h;
          if adaptive.Runner.trace_hash <> ha then
            Alcotest.failf
              "kv entry %s adaptive trace drifted: %Lx, committed %Lx" name
              adaptive.Runner.trace_hash ha);
      let buggy =
        Fuzzer.replay
          ~bug:(Bug.Kv_skip_apply { node = 0; every = 3 })
          ~app:Runner.App_kv schedule
      in
      match buggy.Runner.failure with
      | Some (Runner.Kv_violation _) -> ()
      | _ ->
          Alcotest.failf
            "kv entry %s no longer catches the seeded bug it was minted by"
            name)
    entries

(* Same contract for the multi-ring corpus: the committed schedules
   carry [rings > 1], so replay drives the sharded multi-ring stack —
   M independent rings, the cross-ring KV oracle, and the deterministic
   learner merge. Hashes live in
   [corpus/multiring/trace_hashes_multiring.txt], same line format. *)
let test_multiring_corpus_replays_green () =
  let entries = Corpus.load_dir "corpus/multiring" in
  Alcotest.(check bool) "multiring corpus is not empty" true (entries <> []);
  let oracle =
    committed_kv_hashes "corpus/multiring/trace_hashes_multiring.txt"
  in
  Alcotest.(check int)
    "every multiring corpus entry has committed hashes" (List.length entries)
    (List.length oracle);
  List.iter
    (fun (name, schedule) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is a multi-ring schedule" name)
        true
        (schedule.Schedule.config.Schedule.rings > 1);
      let clean = Fuzzer.replay ~app:Runner.App_kv schedule in
      if not (Runner.passed clean) then
        Alcotest.failf "multiring corpus entry %s regressed: %s" name
          (Format.asprintf "%a" Runner.pp_outcome clean);
      let adaptive = Fuzzer.replay ~adaptive:true ~app:Runner.App_kv schedule in
      if not (Runner.passed adaptive) then
        Alcotest.failf "multiring corpus entry %s regressed (adaptive): %s"
          name
          (Format.asprintf "%a" Runner.pp_outcome adaptive);
      (match List.assoc_opt (Filename.basename name) oracle with
      | None -> Alcotest.failf "no committed trace hashes for %s" name
      | Some (h, ha) ->
          if clean.Runner.trace_hash <> h then
            Alcotest.failf
              "multiring entry %s trace drifted: %Lx, committed %Lx" name
              clean.Runner.trace_hash h;
          if adaptive.Runner.trace_hash <> ha then
            Alcotest.failf
              "multiring entry %s adaptive trace drifted: %Lx, committed %Lx"
              name adaptive.Runner.trace_hash ha);
      let buggy =
        Fuzzer.replay
          ~bug:(Bug.Kv_skip_apply { node = 0; every = 3 })
          ~app:Runner.App_kv schedule
      in
      match buggy.Runner.failure with
      | Some (Runner.Kv_violation _) -> ()
      | _ ->
          Alcotest.failf
            "multiring entry %s no longer catches the seeded bug it was \
             minted by"
            name)
    entries

(* ------------------------------------------------------------------ *)
(* Recovery overhaul regressions + health watchdog                     *)

(* Near-MTU payloads + a small switch buffer + a heavy loss burst: the
   seed tree's unpaced, un-deduplicated recovery flood overflowed the
   switch ports on every formation attempt, pass 4 re-checked 5x then
   re-gathered, and the cycle repeated past the drain deadline
   ([No_convergence] after the full 2 s drain). With designated-holder
   dedup, paced bursts and recheck-triggered resends the same schedule
   converges; [test_recovery_livelock_schedule_converges] pins that, and
   the schedule is also committed to the corpus (both hash oracles).
   The legacy behaviour lives on behind [Bug.Recovery_flood] so the
   watchdog test below keeps exercising the failure path. *)
let livelock_schedule_json =
  {|{"seed":"2092789425003139053","n_nodes":7,"tier_ids":[2,0,2,1,2,2,0],"ten_gig":false,"base_loss_permille":0,"small_switch_buffer":true,"accelerated_window":3,"personal_window":31,"aggressive":true,"max_seq_gap":816,"payload":1350,"submit_gap_ns":679192,"safe_permille":249,"horizon_ns":90500000,"drain_ns":2000000000,"liveness":true,"faults":[{"fault":"loss_burst","at":29230061,"until":90000000,"permille":400}]}|}

let peak_formation_attempts (o : Runner.outcome) =
  List.fold_left
    (fun acc (n : Aring_obs.Health.node_report) ->
      max acc n.Aring_obs.Health.nr_max_attempts)
    0 o.Runner.health.Aring_obs.Health.r_nodes

(* The former livelock schedule must now converge — well before the
   drain deadline, with every node needing at most 3 consecutive
   formation attempts (the watchdog flags at 8) — in both window
   modes. *)
let test_recovery_livelock_schedule_converges () =
  let s = Schedule.of_string livelock_schedule_json in
  let deadline =
    s.Schedule.config.Schedule.horizon_ns + s.Schedule.config.Schedule.drain_ns
  in
  List.iter
    (fun adaptive ->
      let mode = if adaptive then "adaptive" else "static" in
      let o = Fuzzer.replay ~adaptive s in
      if not (Runner.passed o) then
        Alcotest.failf "former livelock schedule regressed (%s): %s" mode
          (Format.asprintf "%a" Runner.pp_outcome o);
      Alcotest.(check bool)
        (mode ^ ": converged well before the drain deadline")
        true
        (o.Runner.end_ns < deadline / 2);
      let peak = peak_formation_attempts o in
      if peak > 3 then
        Alcotest.failf
          "%s: some node needed %d consecutive formation attempts (want <= 3)"
          mode peak)
    [ false; true ]

(* The adaptive singleton-gather stall (ROADMAP known bug, campaign
   trial 72): a 2-node ring where node 0 crashes near the horizon. The
   survivor's first solo gather used to stall under the adaptive
   controller — consensus on a singleton membership never completed —
   leaving the run to time out. Both modes must now converge; the
   schedule is also committed to the corpus (both hash oracles). *)
let gather_stall_schedule_json =
  {|{"seed":"-8724047567367088020","n_nodes":2,"tier_ids":[2,0],"ten_gig":false,"base_loss_permille":15,"small_switch_buffer":false,"accelerated_window":8,"personal_window":31,"aggressive":false,"max_seq_gap":1795,"payload":492,"submit_gap_ns":427377,"safe_permille":46,"horizon_ns":114000000,"drain_ns":2000000000,"liveness":true,"faults":[{"fault":"partition","at":1784014,"until":39640280,"island":[1]},{"fault":"token_blackout","at":17917665,"until":75715064},{"fault":"loss_burst","at":48239399,"until":86904299,"permille":120},{"fault":"crash","at":55677543,"node":0}]}|}

let test_gather_stall_schedule_converges () =
  let s = Schedule.of_string gather_stall_schedule_json in
  List.iter
    (fun adaptive ->
      let mode = if adaptive then "adaptive" else "static" in
      let o = Fuzzer.replay ~adaptive s in
      if not (Runner.passed o) then
        Alcotest.failf "gather-stall schedule regressed (%s): %s" mode
          (Format.asprintf "%a" Runner.pp_outcome o))
    [ false; true ]

(* With the legacy flood re-planted ([Bug.Recovery_flood]), the watchdog
   must (a) flag the livelock well before the drain deadline, (b) name
   the repeated gather→exchange→recheck cycle in its verdict so the
   post-mortem starts from the mechanism instead of a bare timeout, and
   (c) leave the flight recorder holding the run's tail for the dump. *)
let test_watchdog_flags_recovery_flood_livelock () =
  let s = Schedule.of_string livelock_schedule_json in
  let o = Fuzzer.replay ~bug:Bug.Recovery_flood s in
  match o.Runner.failure with
  | Some (Runner.Health_stall { report } as f) ->
      Alcotest.(check string)
        "failure label" "health_stall" (Runner.failure_label f);
      let deadline =
        s.Schedule.config.Schedule.horizon_ns
        + s.Schedule.config.Schedule.drain_ns
      in
      Alcotest.(check bool)
        "stalled run cut short of the drain deadline" true
        (o.Runner.end_ns < deadline);
      let text = Format.asprintf "%a" Aring_obs.Health.pp_report report in
      let contains needle =
        let nl = String.length needle and tl = String.length text in
        let rec scan i =
          i + nl <= tl && (String.sub text i nl = needle || scan (i + 1))
        in
        scan 0
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "verdict names %S" needle)
            true (contains needle))
        [
          "repeated gather\xe2\x86\x92exchange\xe2\x86\x92recheck cycling";
          "formation attempts without reaching operational";
          "exchange-recheck timeouts";
          "recovery floods";
        ];
      Alcotest.(check bool)
        "flight recorder holds the run tail" true
        (Aring_obs.Flight.stored () > 0)
  | Some f ->
      Alcotest.failf "expected health_stall, got %s: %s"
        (Runner.failure_label f)
        (Format.asprintf "%a" Runner.pp_outcome o)
  | None ->
      Alcotest.fail
        "recovery-flood bug injected but schedule passed — either the \
         legacy-flood gate is dead or the watchdog regressed"

(* No KV run passes before its horizon, at any ring count: the workload
   and the fault windows run until then. Seed 5004 at 2 rings used to
   pass at the first 25 ms chunk of its 228 ms horizon. *)
let test_kv_judged_after_horizon () =
  List.iter
    (fun rings ->
      for seed = 5001 to 5006 do
        let s = Schedule.generate ~rings ~seed:(Int64.of_int seed) () in
        let o = Runner.run ~app:Runner.App_kv s in
        if Runner.passed o then
          Alcotest.(check bool)
            (Printf.sprintf "rings=%d seed=%d ends after its horizon" rings seed)
            true
            (o.Runner.end_ns > s.Schedule.config.Schedule.horizon_ns)
      done)
    [ 1; 2 ]

(* [Bug.Recovery_flood] is a construction flag of the bare ring's
   members; outside that stack it would silently run as [Clean]. *)
let test_recovery_flood_bare_ring_only () =
  let expected =
    Invalid_argument
      "Runner.run: Bug.Recovery_flood runs only on the bare single ring \
       (App_none, rings = 1)"
  in
  let one = Schedule.generate ~seed:5001L () in
  let two = Schedule.generate ~rings:2 ~seed:5001L () in
  Alcotest.check_raises "kv app on one ring" expected (fun () ->
      ignore (Runner.run ~bug:Bug.Recovery_flood ~app:Runner.App_kv one));
  Alcotest.check_raises "bare two rings" expected (fun () ->
      ignore (Runner.run ~bug:Bug.Recovery_flood two))

let test_corpus_save_load () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "aring-corpus-test" in
  let s = Schedule.generate ~seed:99L () in
  let path = Corpus.save ~dir ~label:"unit" s in
  let s' = Corpus.load_file path in
  Alcotest.(check string) "save/load round-trip" (Schedule.to_string s)
    (Schedule.to_string s');
  Sys.remove path

let suite =
  [
    ("schedule generation deterministic", `Quick, test_generate_deterministic);
    ("schedules well-formed", `Quick, test_generate_well_formed);
    QCheck_alcotest.to_alcotest prop_schedule_roundtrip;
    ("runner deterministic per seed", `Quick, test_runner_deterministic);
    ("clean schedule passes with churn", `Quick, test_clean_schedule_delivers);
    ("finds + shrinks skip-delivery", `Quick, test_finds_skip_delivery);
    ("finds skip-retransmission", `Quick, test_finds_skip_retransmission);
    ("corpus replays green", `Quick, test_corpus_replays_green);
    ("corpus replays green (adaptive)", `Quick, test_corpus_replays_green_adaptive);
    ("kv runner deterministic per seed", `Quick, test_kv_runner_deterministic);
    ("finds + shrinks kv-skip-apply", `Slow, test_finds_kv_skip_apply);
    ("finds skip-delivery under kv app", `Slow, test_finds_skip_delivery_under_kv);
    ("kv corpus replays green + catches its bug", `Quick,
     test_kv_corpus_replays_green);
    ("multiring corpus replays green + catches its bug", `Quick,
     test_multiring_corpus_replays_green);
    ("former recovery-flood livelock converges", `Quick,
     test_recovery_livelock_schedule_converges);
    ("adaptive singleton-gather stall converges", `Quick,
     test_gather_stall_schedule_converges);
    ("watchdog flags recovery-flood livelock", `Slow,
     test_watchdog_flags_recovery_flood_livelock);
    ("kv runs judged only after the horizon", `Quick,
     test_kv_judged_after_horizon);
    ("recovery-flood only on the bare single ring", `Quick,
     test_recovery_flood_bare_ring_only);
    ("corpus save/load", `Quick, test_corpus_save_load);
  ]
