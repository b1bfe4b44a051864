(* Recovery scaling (`-- recovery [quick]`): one member of a
   bootstrapped N-ring crashes with traffic in flight; we measure
   simulated crash-to-operational time (detection + gather + recovery on
   the new ring's token + install) and the recovery-traffic counters —
   old-ring messages re-sent, and sends avoided by designated-holder
   dedup — per ring size. Then it replays the pinned reproducers of a
   ring that failed to converge under loss when a round outgrew a small
   switch port, and reports each one's time to converge. Gated by
   bench/recovery_budget.json. *)

open Aring_ring
open Aring_wire
open Aring_sim
module Json = Aring_obs.Json

let ms n = n * 1_000_000

(* The pinned reproducers (test/corpus), by campaign seed and trial: a
   budget key each, bounded by its schedule's own horizon plus drain. *)
let reproducers =
  [
    ("20261018_706", "staggered_install-seed17416711353309702130-f0.json");
    ("20261020_121", "staggered_install-seed1187800503618084968-f0.json");
    ("20261019_2697", "split-seed3671661002184160948-f0.json");
  ]

(* [file]'s schedule, from the repository root or from bench/. *)
let load_reproducer file =
  List.find_map
    (fun dir ->
      let path = Filename.concat dir file in
      if Sys.file_exists path then Some (Aring_fuzz.Corpus.load_file path)
      else None)
    [ "test/corpus"; "../test/corpus" ]

type converge_row = { cr_key : string; cr_passed : bool; cr_ms : float }

let converge (key, file) =
  match load_reproducer file with
  | None -> { cr_key = key; cr_passed = false; cr_ms = Float.nan }
  | Some s ->
      let o = Aring_fuzz.Runner.run s in
      {
        cr_key = key;
        cr_passed = Aring_fuzz.Runner.passed o;
        cr_ms = float_of_int o.Aring_fuzz.Runner.end_ns /. 1e6;
      }

type recovery_row = {
  rr_nodes : int;
  rr_reformed : bool;
  rr_reform_ms : float;
  rr_attempts : int;
  rr_floods : int;
  rr_dedup_saved : int;
  rr_dedup_ratio : float;
}

let run ~quick =
  let module Health = Aring_obs.Health in
  Printf.printf "=== Recovery-exchange scaling benchmark%s ===\n%!"
    (if quick then " [QUICK MODE]" else "");
  let sizes = if quick then [ 4; 8; 16 ] else [ 4; 8; 16; 32; 64 ] in
  (* Short membership timeouts keep the detection share of reform time
     at 50 ms across sizes, so scaling in the measurement is scaling of
     gather + exchange + install. *)
  let params = Params.snappy in
  let crash_ns = ms 8 in
  let deadline_ns = ms 5000 in
  let run_size n =
    let members =
      Array.init n (fun me ->
          Member.create ~params ~me ~initial_ring:(Array.init n (fun i -> i))
            ())
    in
    let sim =
      Netsim.create ~net:Profile.gigabit
        ~tiers:(Array.make n Profile.library)
        ~participants:(Array.map Member.participant members)
        ~seed:7L ()
    in
    (* Dense multicast traffic right up to the crash, with the
       highest-numbered node starved of the last 3 ms of multicasts (a
       deterministic straggler — there is no retransmission path once
       the old ring's token dies with the crash), leaves recovery a real
       backlog at every size. *)
    for k = 1 to 160 do
      Netsim.call_at sim ~at:(k * 50_000) (fun () ->
          Member.submit members.(k mod n) Types.Agreed
            (Bytes.of_string (Printf.sprintf "r%d" k)))
    done;
    Netsim.call_at sim ~at:(ms 5) (fun () ->
        Netsim.set_drop sim (fun ~src:_ ~dst -> function
          | Message.Data _ -> dst = n - 1
          | _ -> false));
    Netsim.call_at sim ~at:crash_ns (fun () ->
        Netsim.crash sim 1;
        Netsim.set_drop sim (fun ~src:_ ~dst:_ _ -> false));
    let h = Health.create ~n () in
    let reformed () =
      let ok = ref true in
      for i = 0 to n - 1 do
        if i <> 1 then
          ok :=
            !ok
            && Member.state_name members.(i) = "operational"
            && Member.installs members.(i) >= 2
      done;
      !ok
    in
    let reform_ns = ref (-1) in
    Aring_obs.Trace.with_sink (Health.as_sink h) (fun () ->
        let t = ref (ms 10) in
        while !reform_ns < 0 && !t <= deadline_ns do
          Netsim.run_until sim !t;
          if reformed () then reform_ns := !t;
          t := !t + ms 1
        done);
    let reformed_in_time = !reform_ns >= 0 in
    if not reformed_in_time then reform_ns := deadline_ns;
    let report = Health.report h ~now:!reform_ns in
    let sum f = List.fold_left (fun a nr -> a + f nr) 0 report.Health.r_nodes in
    let floods = sum (fun (nr : Health.node_report) -> nr.nr_flood_total) in
    let saved = sum (fun (nr : Health.node_report) -> nr.nr_dedup_saved) in
    let attempts =
      List.fold_left
        (fun a (nr : Health.node_report) -> max a nr.nr_max_attempts)
        0 report.Health.r_nodes
    in
    {
      rr_nodes = n;
      rr_reformed = reformed_in_time;
      rr_reform_ms = float_of_int (!reform_ns - crash_ns) /. 1e6;
      rr_attempts = attempts;
      rr_floods = floods;
      rr_dedup_saved = saved;
      rr_dedup_ratio =
        (if floods + saved = 0 then 0.
         else float_of_int saved /. float_of_int (floods + saved));
    }
  in
  Printf.printf "nodes  reform_ms  attempts  floods  dedup_saved  ratio\n%!";
  let rows = List.map run_size sizes in
  List.iter
    (fun r ->
      Printf.printf "%5d  %9.1f  %8d  %6d  %11d  %5.2f\n%!" r.rr_nodes
        r.rr_reform_ms r.rr_attempts r.rr_floods r.rr_dedup_saved
        r.rr_dedup_ratio)
    rows;
  let worst_reform =
    List.fold_left (fun a r -> Float.max a r.rr_reform_ms) 0. rows
  in
  let worst_attempts =
    List.fold_left (fun a r -> max a r.rr_attempts) 0 rows
  in
  let largest = List.nth rows (List.length rows - 1) in
  let converged = List.map converge reproducers in
  Printf.printf "reproducer      passed  converge_ms\n%!";
  List.iter
    (fun c -> Printf.printf "%-14s  %6b  %11.1f\n%!" c.cr_key c.cr_passed c.cr_ms)
    converged;
  {
    Gate.fields =
      [
        ( "sizes",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("nodes", Json.Int r.rr_nodes);
                     ("reform_ms", Json.Float r.rr_reform_ms);
                     ("formation_attempts", Json.Int r.rr_attempts);
                     ("floods", Json.Int r.rr_floods);
                     ("dedup_saved", Json.Int r.rr_dedup_saved);
                     ("dedup_ratio", Json.Float r.rr_dedup_ratio);
                   ])
               rows) );
        ( "reproducers",
          Json.List
            (List.map
               (fun c ->
                 Json.Obj
                   [
                     ("campaign", Json.String c.cr_key);
                     ("passed", Json.Bool c.cr_passed);
                     ("converge_ms", Json.Float c.cr_ms);
                   ])
               converged) );
      ];
    checks =
      [
        Gate.Max ("max_reform_ms", worst_reform);
        Gate.Max ("max_formation_attempts", float_of_int worst_attempts);
        Gate.Min ("min_dedup_savings_ratio_largest", largest.rr_dedup_ratio);
      ]
      @ List.map (fun c -> Gate.Max ("max_converge_ms_" ^ c.cr_key, c.cr_ms)) converged;
    echo = [];
    conditions =
      [
        ( Printf.sprintf "every ring re-forms within %d ms" (deadline_ns / ms 1),
          List.for_all (fun r -> r.rr_reformed) rows );
        ( "every pinned reproducer converges",
          List.for_all (fun c -> c.cr_passed) converged );
      ];
  }
