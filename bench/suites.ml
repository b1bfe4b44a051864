(* The suite table of bench/main.exe. Every gated suite writes
   BENCH_<name>.json and is judged against bench/<name>_budget.json. *)

let gated =
  [
    ("hotpath", Bench_hotpath.run);
    ("window", Bench_window.run);
    ("kv", Bench_kv.run);
    ("obs", Bench_obs.run);
    ("recovery", Bench_recovery.run);
    ("load", Bench_load.run);
    ("multiring", Bench_multiring.run);
  ]

let table =
  ("paper", Bench_paper.run)
  :: List.map (fun (name, run) -> (name, Gate.run ~name run)) gated
