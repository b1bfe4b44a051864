(** The committed reproducer corpus.

    Every schedule the fuzzer ever minimized is saved as one single-line
    JSON file under a corpus directory (in this repo, [test/corpus/]) and
    replayed by the test suite forever after — a regression net that only
    grows. File names are a deterministic function of the schedule, so
    re-saving the same reproducer is idempotent. *)

val save : dir:string -> label:string -> Schedule.t -> string
(** Write the schedule in [dir] (created if missing) as
    [label-seed<unsigned-seed>-f<faultcount>.json]; returns the path. *)

val load_file : string -> Schedule.t
(** @raise Aring_obs.Json.Parse_error on malformed content. *)

val load_dir : string -> (string * Schedule.t) list
(** All [*.json] entries under [dir] and its subdirectories, sorted,
    named by their path below [dir]; empty if [dir] does not exist. *)
