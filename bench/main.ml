(* Usage: dune exec bench/main.exe -- [SUITE] [quick]

   SUITE is one of the names in [Suites.table] and defaults to "paper",
   the full reproduction of the paper's figures; "quick" selects coarser
   grids and shorter runs. *)

open Aring_bench

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let suite =
    match List.filter (fun a -> a <> "quick") args with
    | [] -> List.assoc_opt "paper" Suites.table
    | [ name ] -> List.assoc_opt name Suites.table
    | _ -> None
  in
  match suite with
  | Some run -> run ~quick
  | None ->
      Printf.eprintf "usage: main.exe [SUITE] [quick]\nsuites: %s\n"
        (String.concat " " (List.map fst Suites.table));
      exit 2
