(* The budget gate every gated suite shares. A suite measures and returns
   an [outcome]; [run] loads the committed bench/<suite>_budget.json,
   checks each measured value against its bound, writes
   BENCH_<suite>.json and exits non-zero on any miss. A budget file that
   is missing or unreadable, a bound the file lacks, and a bound no check
   reads all fail the gate: a budget that cannot be read is never a
   pass. *)

module Json = Aring_obs.Json

type check =
  | Max of string * float  (** The value may not exceed the budget key. *)
  | Min of string * float  (** The value may not fall below the budget key. *)
  | Require of string * bool
      (** The condition must hold when the budget key is [true]. *)

type outcome = {
  fields : (string * Json.t) list;
      (** The result document, between "mode" and "budget". *)
  checks : check list;
  echo : (string * Json.t) list;
      (** Measured values repeated inside "budget", after the bounds. *)
  conditions : (string * bool) list;
      (** Correctness conditions checked whatever the budget says: what
          must hold, and whether it held. *)
}

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> (
      try Ok (Json.of_string s)
      with Json.Parse_error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e

let key = function Max (k, _) | Min (k, _) | Require (k, _) -> k

(* Every field of a budget file except its self-description is a bound. *)
let bounds = function
  | Json.Obj fields ->
      List.filter (fun (k, _) -> k <> "schema" && k <> "comment") fields
  | _ -> []

let number = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

(* The "budget" object of BENCH_<suite>.json and one line per failure. *)
let judge ~path budget outcome =
  let fail fmt = Printf.sprintf ("BUDGET FAIL " ^^ fmt) in
  let check_failure bounds c =
    match (c, List.assoc_opt (key c) bounds) with
    | _, None -> Some (fail "%s: missing from %s" (key c) path)
    | Max (k, v), Some b -> (
        match number b with
        | Some m when v <= m -> None
        | _ -> Some (fail "%s: %g vs %s" k v (Json.to_string b)))
    | Min (k, v), Some b -> (
        match number b with
        | Some m when v >= m -> None
        | _ -> Some (fail "%s: %g vs %s" k v (Json.to_string b)))
    | Require (k, holds), Some b -> (
        match b with
        | Json.Bool required when holds || not required -> None
        | _ -> Some (fail "%s: %b vs %s" k holds (Json.to_string b)))
  in
  let unread (k, _) =
    if List.exists (fun c -> key c = k) outcome.checks then None
    else Some (fail "%s: in %s but no check reads it" k path)
  in
  let bounds, budget_failures =
    match budget with
    | Error e -> ([], [ fail "%s" e ])
    | Ok b ->
        let bounds = bounds b in
        ( bounds,
          List.filter_map (check_failure bounds) outcome.checks
          @ List.filter_map unread bounds )
  in
  let failures =
    budget_failures
    @ List.filter_map
        (fun (what, holds) -> if holds then None else Some ("FAIL: " ^ what))
        outcome.conditions
  in
  let shown =
    List.map
      (fun (k, b) -> (k, match number b with Some f -> Json.Float f | None -> b))
      bounds
  in
  ( Json.Obj (shown @ outcome.echo @ [ ("pass", Json.Bool (failures = [])) ]),
    failures )

let run ~name suite ~quick =
  let outcome = suite ~quick in
  let path = Printf.sprintf "bench/%s_budget.json" name in
  let budget, failures = judge ~path (load path) outcome in
  let doc =
    Json.Obj
      ([
         ("schema", Json.String (Printf.sprintf "aring.bench.%s/1" name));
         ("mode", Json.String (if quick then "quick" else "full"));
       ]
      @ outcome.fields
      @ [ ("budget", budget) ])
  in
  let file = Printf.sprintf "BENCH_%s.json" name in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" file;
  List.iter (Printf.printf "%s\n%!") failures;
  if failures <> [] then begin
    (* Post-mortem for the CI artifact, mirroring the fuzz steps. *)
    let flight = Printf.sprintf "BENCH_%s_flight.jsonl" name in
    Aring_obs.Flight.dump_jsonl_file flight;
    Printf.printf "flight dump written to %s\n%!" flight;
    exit 1
  end
