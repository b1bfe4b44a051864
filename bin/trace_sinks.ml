(* Trace sink assembly shared by the simulator CLIs: a JSONL stream
   and/or an in-memory buffer feeding the Chrome exporter, plus any
   [extra] sinks (the live invariant checker). With none requested,
   tracing stays disabled and free. *)

module Trace = Aring_obs.Trace

type t = {
  jsonl_oc : out_channel option;
  mem : Trace.memory option;
  chrome_file : string option;
  installed : bool;
}

let install ?(extra = []) ~trace_file ~chrome_file () =
  let jsonl_oc = Option.map open_out trace_file in
  let mem = if chrome_file <> None then Some (Trace.memory ()) else None in
  let sinks =
    List.filter_map Fun.id
      [
        Option.map Aring_obs.Trace_json.jsonl_sink jsonl_oc;
        Option.map Trace.memory_sink mem;
      ]
    @ extra
  in
  (match sinks with
  | [] -> ()
  | [ s ] -> Trace.install s
  | ss -> Trace.install (Trace.tee ss));
  { jsonl_oc; mem; chrome_file; installed = sinks <> [] }

(* Uninstall, close the JSONL stream and write the Chrome file. *)
let finish t =
  if t.installed then Trace.uninstall ();
  Option.iter close_out t.jsonl_oc;
  match (t.mem, t.chrome_file) with
  | Some m, Some path ->
      Aring_obs.Chrome_trace.write_file path (Trace.memory_events m);
      Format.printf "chrome trace (%d events) written to %s@."
        (Trace.memory_count m) path
  | _ -> ()

open Cmdliner

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write the structured event trace as JSONL to $(docv).")

let chrome_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event file to $(docv) (open in \
           chrome://tracing or ui.perfetto.dev).")
