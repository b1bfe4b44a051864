(* The budget gate and the suite table of bench/main.exe. No test here
   runs a suite: each judges hand-made measurements or reads the
   committed budget and BENCH files. *)

open Aring_bench
module Json = Aring_obs.Json

let outcome ?(conditions = []) checks =
  { Gate.fields = []; checks; echo = []; conditions }

let keys = function Json.Obj fields -> List.map fst fields | _ -> []

let contains s needle =
  let n = String.length needle in
  let rec from i =
    i + n <= String.length s && (String.sub s i n = needle || from (i + 1))
  in
  from 0

(* Each case: budget file contents, checks, conditions, and the words
   each expected failure line must contain (one list per line). *)
let cases =
  Gate.
    [
      ( "a value at its bound passes",
        {|{"max_a": 5, "min_b": 2.5}|},
        [ Max ("max_a", 5.0); Min ("min_b", 2.5) ],
        [],
        [] );
      ( "a value beyond its bound fails",
        {|{"max_a": 5, "min_b": 2.5}|},
        [ Max ("max_a", 5.1); Min ("min_b", 2.4); Max ("max_a", nan) ],
        [],
        [ [ "max_a"; "5.1" ]; [ "min_b"; "2.4" ]; [ "max_a"; "nan" ] ] );
      ( "a missing key fails and names it",
        {|{"max_a": 5}|},
        [ Max ("max_a", 1.0); Min ("min_b", 1.0) ],
        [],
        [ [ "min_b"; "x_budget.json" ] ] );
      ( "a bound no check reads fails",
        {|{"max_a": 5, "max_typo": 1, "comment": "c"}|},
        [ Max ("max_a", 1.0) ],
        [],
        [ [ "max_typo" ] ] );
      ( "a requirement must hold unless waived",
        {|{"require_x": true, "require_y": false}|},
        [ Require ("require_x", false); Require ("require_y", false) ],
        [],
        [ [ "require_x" ] ] );
      ( "a failed condition fails",
        {|{}|},
        [],
        [ ("oracle", false) ],
        [ [ "oracle" ] ] );
    ]

let judge_case (name, budget, checks, conditions, expected) =
  Alcotest.test_case name `Quick (fun () ->
      let budget, failures =
        Gate.judge ~path:"x_budget.json"
          (Ok (Json.of_string budget))
          (outcome ~conditions checks)
      in
      Alcotest.(check int)
        "failures" (List.length expected) (List.length failures);
      List.iter2
        (fun line words ->
          List.iter
            (fun w ->
              Alcotest.(check bool) (line ^ " names " ^ w) true (contains line w))
            words)
        failures expected;
      Alcotest.(check (option bool))
        "pass" (Some (expected = []))
        (Option.bind (Json.member "pass" budget) Json.to_bool))

let test_at_bound_object () =
  let budget, _ =
    Gate.judge ~path:"x_budget.json"
      (Ok (Json.of_string {|{"max_a": 5, "min_b": 2.5, "schema": "s"}|}))
      (outcome Gate.[ Max ("max_a", 5.0); Min ("min_b", 2.5) ])
  in
  Alcotest.(check string) "bounds as floats, then pass"
    {|{"max_a":5.0,"min_b":2.5,"pass":true}|} (Json.to_string budget)

let test_missing_file () =
  let path = "no_such_budget.json" in
  let loaded = Gate.load path in
  let budget, failures =
    Gate.judge ~path loaded (outcome Gate.[ Max ("max_a", 1.0) ])
  in
  Alcotest.(check bool) "load fails" true (Result.is_error loaded);
  Alcotest.(check (list bool)) "one failure naming the file" [ true ]
    (List.map (fun l -> contains l path) failures);
  Alcotest.(check string)
    "pass is false" {|{"pass":false}|} (Json.to_string budget)

(* The gate builds "budget" from the budget file's bounds, so the
   committed budget files and BENCH outputs must agree on its keys. *)
let test_committed_keys () =
  List.iter
    (fun suite ->
      let budget, _ =
        Gate.judge ~path:"" (Gate.load (suite ^ "_budget.json")) (outcome [])
      in
      let committed =
        In_channel.with_open_bin
          ("../BENCH_" ^ suite ^ ".json")
          In_channel.input_all
        |> Json.of_string |> Json.member "budget" |> Option.get
      in
      Alcotest.(check (list string)) (suite ^ " budget keys")
        (List.sort compare (keys committed))
        (List.sort compare (keys budget)))
    [ "load"; "recovery" ]

let test_budget_files () =
  let files =
    Sys.readdir "." |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f "_budget.json")
    |> List.sort compare
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " parses") true (Result.is_ok (Gate.load f)))
    files;
  Alcotest.(check (list string)) "one budget file per gated suite"
    (List.sort compare
       (List.map (fun (n, _) -> n ^ "_budget.json") Suites.gated))
    files

let () =
  Alcotest.run "bench"
    [
      ( "gate",
        List.map judge_case cases
        @ [
            Alcotest.test_case "the budget object" `Quick test_at_bound_object;
            Alcotest.test_case "a missing budget file fails" `Quick
              test_missing_file;
          ] );
      ( "suites",
        [
          Alcotest.test_case "budget keys match committed BENCH files" `Quick
            test_committed_keys;
          Alcotest.test_case "every budget file belongs to one suite" `Quick
            test_budget_files;
        ] );
    ]
