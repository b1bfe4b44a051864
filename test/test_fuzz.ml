(* Tests for the deterministic simulation fuzzer: schedule generation and
   serialization, runner determinism (the Netsim regression test — equal
   seeds must produce bit-equal trace streams), seeded-bug detection with
   shrinking, and replay of the committed corpus. *)

open Aring_fuzz

(* A small hand-built schedule with both fault kinds that exercise the
   drop predicate; converges in well under a simulated second. *)
let small_schedule ?(app = Schedule.Bare) seed =
  {
    Schedule.seed;
    config =
      {
        Schedule.app;
        n_nodes = 3;
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
    (Schedule.to_string a = Schedule.to_string c);
  let kv = Schedule.generate ~app:Schedule.Kv ~seed:42L () in
  Alcotest.(check bool)
    "the app is set, not drawn" true
    ({ kv with config = { kv.config with app = Schedule.Bare } } = a)

(* A schedule sets only the windows, the priority method and the
   sequence gap; every other parameter is the fast profile's. *)
let test_schedule_params_are_snappy () =
  let open Aring_ring in
  List.iter
    (fun rings ->
      for seed = 1 to 500 do
        let seed = Int64.of_int seed in
        let c = (Schedule.generate ~app:Schedule.Kv ~rings ~seed ()).config in
        let p = Schedule.params c in
        let expected =
          {
            Params.snappy with
            Params.personal_window = c.personal_window;
            global_window = p.global_window;
            accelerated_window = c.accelerated_window;
            priority_method =
              (if c.aggressive then Params.Aggressive else Params.Conservative);
            max_seq_gap = c.max_seq_gap;
          }
        in
        if p <> expected then
          Alcotest.failf "rings %d seed %Ld: params differ from Params.snappy"
            rings seed
      done)
    [ 1; 2; 4 ]

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

(* Rings 0 stands for a bare schedule, any other count for a KV one. *)
let prop_schedule_roundtrip =
  QCheck.Test.make ~count:100 ~name:"schedule JSON round-trips exactly"
    QCheck.(pair int64 (int_bound 4))
    (fun (seed, rings) ->
      let s =
        if rings = 0 then Schedule.generate ~seed ()
        else Schedule.generate ~app:Schedule.Kv ~rings ~seed ()
      in
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
   schedule. Lines are "<path below corpus/> <16-hex-digit hash>"; '#'
   starts a comment. *)
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

(* One corpus, one path: every entry, bare or KV at any ring count,
   replays clean at exactly its pinned hash, and every KV entry still
   fails when the bug that minted the KV corpus is re-planted — the
   corpus stays a working self-test, not a fossil. Each schedule names
   its own app, so no entry needs an argument beyond the bug. *)
(* Every corpus entry, named by its path under [corpus/]; one committed
   hash per entry. *)
let corpus () =
  let entries = Corpus.load_dir "corpus" in
  let oracle = committed_hashes "corpus/trace_hashes.txt" in
  Alcotest.(check (list string))
    "one committed hash per corpus entry"
    (List.sort compare (List.map fst oracle))
    (List.sort compare (List.map fst entries));
  (entries, oracle)

let in_subdir dir (name, _) =
  let prefix = dir ^ "/" in
  String.length name > String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

(* Each entry replays green at its committed trace hash. *)
let replay_green oracle entries =
  List.iter
    (fun (name, schedule) ->
      let o = Runner.run schedule in
      if not (Runner.passed o) then
        Alcotest.failf "corpus entry %s regressed: %s" name
          (Format.asprintf "%a" Runner.pp_outcome o);
      let expected = List.assoc name oracle in
      if o.Runner.trace_hash <> expected then
        Alcotest.failf "corpus entry %s trace drifted: hash %Lx, committed %Lx"
          name o.Runner.trace_hash expected)
    entries

(* Each KV entry, replayed with the bug that minted it re-planted, must
   fail on a KV violation. *)
let catches_kv_bug entries =
  List.iter
    (fun (name, schedule) ->
      match
        (Runner.run ~bug:(Bug.Kv_skip_apply { node = 0; every = 3 }) schedule)
          .Runner.failure
      with
      | Some (Runner.Kv_violation _) -> ()
      | _ ->
          Alcotest.failf
            "kv entry %s no longer catches the seeded bug it was minted by"
            name)
    entries

(* The corpus is one directory walk; [kv/] and [multiring/] are filing
   only, and they hold exactly the KV entries. The entries outside them
   replay here, those inside in the two tests below. *)
let test_corpus_replays_green () =
  let entries, oracle = corpus () in
  let is_kv (_, (s : Schedule.t)) = s.config.Schedule.app = Schedule.Kv in
  let filed (e : string * Schedule.t) =
    in_subdir "kv" e || in_subdir "multiring" e
  in
  Alcotest.(check (list string))
    "the KV entries are the ones filed under kv/ and multiring/"
    (List.map fst (List.filter filed entries))
    (List.map fst (List.filter is_kv entries));
  Alcotest.(check int) "kv entries" 9 (List.length (List.filter is_kv entries));
  replay_green oracle (List.filter (fun e -> not (filed e)) entries)

let test_subdir_corpus_replays_green dir () =
  let entries, oracle = corpus () in
  let entries = List.filter (in_subdir dir) entries in
  if entries = [] then Alcotest.failf "no corpus entries under %s/" dir;
  replay_green oracle entries;
  catches_kv_bug entries

(* ------------------------------------------------------------------ *)
(* KV app mode: determinism, seeded-bug self-test, corpus pinning      *)

let test_kv_runner_deterministic () =
  let s = small_schedule ~app:Schedule.Kv 7L in
  let a = Runner.run s in
  let b = Runner.run s in
  Alcotest.(check bool)
    "clean kv schedule passes" true (Runner.passed a);
  Alcotest.(check int64) "identical kv trace hash" a.Runner.trace_hash
    b.Runner.trace_hash;
  let raw = Runner.run (small_schedule 7L) in
  Alcotest.(check bool)
    "kv traffic changes the trace" false
    (a.Runner.trace_hash = raw.Runner.trace_hash)

let test_finds_kv_skip_apply () =
  let kv_skip_apply = Bug.Kv_skip_apply { node = 0; every = 7 } in
  let report =
    Fuzzer.run_campaign
      {
        (quiet_campaign ~bug:kv_skip_apply ~shrink:true) with
        Fuzzer.app = Schedule.Kv;
      }
  in
  match (report.Fuzzer.failure, report.Fuzzer.shrunk) with
  | None, _ -> Alcotest.fail "kv-skip-apply bug not found within 200 trials"
  | Some t, Some r ->
      Alcotest.(check int) "caught on the very first schedule" 0 t.Fuzzer.index;
      (match t.Fuzzer.outcome.Runner.failure with
      | Some (Runner.Kv_violation { total; _ }) ->
          Alcotest.(check bool) "oracle recorded violations" true (total > 0)
      | Some f ->
          Alcotest.failf "expected a kv_violation, got %s"
            (Runner.failure_label f)
      | None -> Alcotest.fail "expected a kv_violation");
      (* The reproducer replays as printed: saved, loaded back and run
         with nothing but the bug, it fails again. *)
      let dir = Filename.concat (Filename.get_temp_dir_name ()) "aring-repro" in
      let path = Corpus.save ~dir ~label:"kv_violation" r.Shrink.schedule in
      let loaded = Corpus.load_file path in
      Sys.remove path;
      Alcotest.(check bool)
        "saved reproducer fails" false
        (Runner.passed (Runner.run ~bug:kv_skip_apply loaded))
  | Some _, None -> Alcotest.fail "shrinking was requested but did not run"

(* The learner-path seeded bugs of the position merge, at two rings:
   each is caught at trial 0 of campaign seed 4 by the oracle check it
   exists to test, and shrunk to a schedule that still fails. *)
let finds_learner_bug bug ~kind () =
  let report =
    Fuzzer.run_campaign
      {
        (quiet_campaign ~bug ~shrink:true) with
        Fuzzer.app = Schedule.Kv;
        rings = 2;
        seed = 4L;
        trials = 1;
        max_shrink_runs = 20;
      }
  in
  let has_kind (o : Runner.outcome) =
    match o.Runner.failure with
    | Some (Runner.Kv_violation { messages; _ }) ->
        List.exists
          (fun m ->
            let n = String.length kind and l = String.length m in
            let rec at i = i + n <= l && (String.sub m i n = kind || at (i + 1)) in
            at 0)
          messages
    | _ -> false
  in
  match (report.Fuzzer.failure, report.Fuzzer.shrunk) with
  | None, _ -> Alcotest.failf "%s not caught at trial 0" (Bug.label bug)
  | Some t, Some r ->
      Alcotest.(check int) "caught on the very first schedule" 0 t.Fuzzer.index;
      Alcotest.(check bool) ("flagged as " ^ kind) true (has_kind t.Fuzzer.outcome);
      Alcotest.(check bool)
        "shrunk schedule still fails" false (Runner.passed r.Shrink.outcome);
      Alcotest.(check bool)
        "shrinking dropped a fault" true
        (Schedule.fault_count r.Shrink.schedule
        < Schedule.fault_count t.Fuzzer.schedule)
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
        Fuzzer.app = Schedule.Kv;
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

(* ------------------------------------------------------------------ *)
(* Recovery overhaul regressions + health watchdog                     *)

(* Near-MTU payloads + a small switch buffer + a heavy loss burst: the
   seed tree's unpaced, un-deduplicated recovery flood overflowed the
   switch ports on every formation attempt, and the cycle repeated past
   the drain deadline ([No_convergence] after the full 2 s drain). With
   designated-holder dedup, and recovery paced and repaired by the new
   ring's token, the same schedule converges;
   [test_recovery_livelock_schedule_converges] pins that, and the
   schedule is also committed to the corpus. [Bug.Recovery_flood] drops
   every recovery message, so the watchdog test below keeps exercising
   the failure path. *)
let livelock_schedule_json =
  {|{"seed":"2092789425003139053","n_nodes":7,"tier_ids":[2,0,2,1,2,2,0],"ten_gig":false,"base_loss_permille":0,"small_switch_buffer":true,"accelerated_window":3,"personal_window":31,"aggressive":true,"max_seq_gap":816,"payload":1350,"submit_gap_ns":679192,"safe_permille":249,"horizon_ns":90500000,"drain_ns":2000000000,"liveness":true,"faults":[{"fault":"loss_burst","at":29230061,"until":90000000,"permille":400}]}|}

let peak_formation_attempts (o : Runner.outcome) =
  List.fold_left
    (fun acc (n : Aring_obs.Health.node_report) ->
      max acc n.Aring_obs.Health.nr_max_attempts)
    0 o.Runner.health.Aring_obs.Health.r_nodes

(* The former livelock schedule must now converge — well before the
   drain deadline, with every node needing at most 3 consecutive
   formation attempts (the watchdog flags at 8). *)
let test_recovery_livelock_schedule_converges () =
  let s = Schedule.of_string livelock_schedule_json in
  let deadline =
    s.Schedule.config.Schedule.horizon_ns + s.Schedule.config.Schedule.drain_ns
  in
  let o = Runner.run s in
  if not (Runner.passed o) then
    Alcotest.failf "former livelock schedule regressed: %s"
      (Format.asprintf "%a" Runner.pp_outcome o);
  Alcotest.(check bool)
    "converged well before the drain deadline" true
    (o.Runner.end_ns < deadline / 2);
  let peak = peak_formation_attempts o in
  if peak > 3 then
    Alcotest.failf
      "some node needed %d consecutive formation attempts (want <= 3)" peak

(* The singleton-gather stall (campaign trial 72): a 2-node ring where
   node 0 crashes near the horizon. The survivor's first solo gather
   used to stall — consensus on a singleton membership never completed
   — leaving the run to time out (first seen with a per-node window
   controller, since removed). It must converge; the schedule is also
   committed to the corpus. *)
let gather_stall_schedule_json =
  {|{"seed":"-8724047567367088020","n_nodes":2,"tier_ids":[2,0],"ten_gig":false,"base_loss_permille":15,"small_switch_buffer":false,"accelerated_window":8,"personal_window":31,"aggressive":false,"max_seq_gap":1795,"payload":492,"submit_gap_ns":427377,"safe_permille":46,"horizon_ns":114000000,"drain_ns":2000000000,"liveness":true,"faults":[{"fault":"partition","at":1784014,"until":39640280,"island":[1]},{"fault":"token_blackout","at":17917665,"until":75715064},{"fault":"loss_burst","at":48239399,"until":86904299,"permille":120},{"fault":"crash","at":55677543,"node":0}]}|}

let test_gather_stall_schedule_converges () =
  let o = Runner.run (Schedule.of_string gather_stall_schedule_json) in
  if not (Runner.passed o) then
    Alcotest.failf "gather-stall schedule regressed: %s"
      (Format.asprintf "%a" Runner.pp_outcome o)

(* With every recovery message dropped ([Bug.Recovery_flood]), the
   watchdog must (a) flag the stall well before the drain deadline, (b)
   name the nodes stuck in Recover, the new ring's token still asking
   for messages no member can send, so the post-mortem starts from the
   mechanism instead of a bare timeout, and (c) leave the flight
   recorder holding the run's tail for the dump. *)
let test_watchdog_flags_recovery_flood_livelock () =
  let s = Schedule.of_string livelock_schedule_json in
  let o = Runner.run ~bug:Bug.Recovery_flood s in
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
        [ "no delivery progress"; "stuck outside operational"; "(recover)" ];
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
         flood wrapper is dead or the watchdog regressed"

(* No KV run passes before its horizon, at any ring count: the workload
   and the fault windows run until then. Seed 5004 at 2 rings used to
   pass at the first 25 ms chunk of its 228 ms horizon. *)
let test_kv_judged_after_horizon () =
  List.iter
    (fun rings ->
      for seed = 5001 to 5006 do
        let s =
          Schedule.generate ~app:Schedule.Kv ~rings ~seed:(Int64.of_int seed) ()
        in
        let o = Runner.run s in
        if Runner.passed o then
          Alcotest.(check bool)
            (Printf.sprintf "rings=%d seed=%d ends after its horizon" rings seed)
            true
            (o.Runner.end_ns > s.Schedule.config.Schedule.horizon_ns)
      done)
    [ 1; 2 ]

(* A bare schedule hosts no KV: a KV or learner bug is refused rather
   than passed on a stack it never touched, and a multi-ring schedule
   cannot be bare, whether generated or parsed. *)
let test_bare_schedule_refuses_kv () =
  List.iter
    (fun bug ->
      match Runner.run ~bug (small_schedule 7L) with
      | o ->
          Alcotest.failf "%s ran on a bare schedule: %s" (Bug.label bug)
            (Format.asprintf "%a" Runner.pp_outcome o)
      | exception Invalid_argument _ -> ())
    [
      Bug.Kv_skip_apply { node = 0; every = 7 };
      Bug.Kv_apply_before_election;
      Bug.Merge_no_seek;
    ];
  Alcotest.check_raises "generate refuses a bare multi-ring schedule"
    (Invalid_argument "schedule: a multi-ring schedule hosts the kv app")
    (fun () -> ignore (Schedule.generate ~rings:2 ~seed:1L ()));
  (* A KV schedule's JSON with its app field replaced by [field]. *)
  let kv_json ~field rings =
    let json =
      Schedule.to_string (Schedule.generate ~app:Schedule.Kv ~rings ~seed:1L ())
    in
    let i = String.length {|{"seed":"1",|} and app = {|"app":"kv",|} in
    let j = i + String.length app in
    Alcotest.(check string)
      "the app follows the seed" app (String.sub json i (j - i));
    String.sub json 0 i ^ field ^ String.sub json j (String.length json - j)
  in
  Alcotest.(check string)
    "bare JSON has no app"
    (Schedule.to_string (Schedule.generate ~seed:1L ()))
    (kv_json ~field:"" 1);
  List.iter
    (fun json ->
      match Schedule.of_string json with
      | _ -> Alcotest.failf "parsed %s" json
      | exception Aring_obs.Json.Parse_error _ -> ())
    [ kv_json ~field:"" 2; kv_json ~field:{|"app":"paxos",|} 1 ]

let test_corpus_save_load () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "aring-corpus-test" in
  let s = Schedule.generate ~seed:99L () in
  let path = Corpus.save ~dir ~label:"unit" s in
  let s' = Corpus.load_file path in
  Alcotest.(check string) "save/load round-trip" (Schedule.to_string s)
    (Schedule.to_string s');
  Sys.remove path

(* A save into a directory whose parents are missing creates them. *)
let test_corpus_save_nested () =
  let root = Filename.temp_dir "aring-corpus" "" in
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let s = Schedule.generate ~seed:98L () in
  let path = Corpus.save ~dir ~label:"unit" s in
  Alcotest.(check string) "saved and loaded back" (Schedule.to_string s)
    (Schedule.to_string (Corpus.load_file path));
  Sys.remove path;
  Sys.rmdir dir;
  Sys.rmdir (Filename.dirname dir);
  Sys.rmdir root

(* The index of the first [sub] in [s], if any. *)
let index_of sub s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

(* A schedule file written before every run was judged for liveness
   carries ["liveness":true]: it loads as the schedule without the
   field, [false] is refused, and [to_string] no longer writes it. Every
   committed corpus file keeps the field and is otherwise exactly its
   schedule's [to_string]. *)
let test_old_liveness_field () =
  let field = {|"liveness":true,|} in
  let without text =
    Option.map
      (fun i ->
        let j = i + String.length field in
        String.sub text 0 i ^ String.sub text j (String.length text - j))
      (index_of field text)
  in
  let json = Schedule.to_string (Schedule.generate ~seed:5L ()) in
  Alcotest.(check (option string)) "to_string writes no liveness" None (without json);
  let i = Option.get (index_of {|"faults":|} json) in
  let with_liveness v =
    String.sub json 0 i ^ {|"liveness":|} ^ v ^ "," ^ String.sub json i (String.length json - i)
  in
  Alcotest.(check string)
    "liveness true loads as the schedule" json
    (Schedule.to_string (Schedule.of_string (with_liveness "true")));
  (match Schedule.of_string (with_liveness "false") with
  | _ -> Alcotest.fail "liveness false parsed"
  | exception Aring_obs.Json.Parse_error _ -> ());
  List.iter
    (fun (name, s) ->
      let text =
        In_channel.with_open_bin (Filename.concat "corpus" name) In_channel.input_all
      in
      Alcotest.(check (option string))
        (name ^ " is its schedule with liveness true")
        (Some (Schedule.to_string s ^ "\n"))
        (without text))
    (Corpus.load_dir "corpus")

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
    ("kv runner deterministic per seed", `Quick, test_kv_runner_deterministic);
    ("finds + shrinks kv-skip-apply", `Slow, test_finds_kv_skip_apply);
    ( "finds + shrinks kv-apply-before-election",
      `Slow,
      finds_learner_bug Bug.Kv_apply_before_election ~kind:"log_divergence" );
    ( "finds + shrinks merge-no-seek",
      `Slow,
      finds_learner_bug Bug.Merge_no_seek ~kind:"merge_order" );
    ("finds skip-delivery under kv app", `Slow, test_finds_skip_delivery_under_kv);
    ("kv corpus replays green + catches its bug", `Quick,
     test_subdir_corpus_replays_green "kv");
    ("multiring corpus replays green + catches its bug", `Quick,
     test_subdir_corpus_replays_green "multiring");
    ("former recovery-flood livelock converges", `Quick,
     test_recovery_livelock_schedule_converges);
    ("singleton-gather stall converges", `Quick,
     test_gather_stall_schedule_converges);
    ("watchdog flags recovery-flood livelock", `Slow,
     test_watchdog_flags_recovery_flood_livelock);
    ("kv runs judged only after the horizon", `Quick,
     test_kv_judged_after_horizon);
    ("corpus save/load", `Quick, test_corpus_save_load);
    ("bare schedule refuses kv", `Quick, test_bare_schedule_refuses_kv);
    ("schedule params are the snappy profile", `Quick,
     test_schedule_params_are_snappy);
    ("corpus save creates missing parents", `Quick, test_corpus_save_nested);
    ("old schedules' liveness field", `Quick, test_old_liveness_field);
  ]
