(* Trace sink assembly shared by the simulator CLIs: the Flight record
   stream as JSONL and/or collected for the Chrome exporter, plus any
   [extra] sinks (the live invariant checker), each subscribed until
   [finish]. *)

module Flight = Aring_obs.Flight
module Trace = Aring_obs.Trace

type t = {
  jsonl_oc : out_channel option;
  events : Flight.event list ref;  (* newest first *)
  chrome_file : string option;
  sinks : Trace.sink list;
}

let install ?(extra = []) ~trace_file ~chrome_file () =
  let jsonl_oc = Option.map open_out trace_file in
  let events = ref [] in
  let sinks =
    List.filter_map Fun.id
      [
        Option.map (fun oc -> Trace.fn_sink (Flight.output_line oc)) jsonl_oc;
        Option.map (fun _ -> Trace.fn_sink (fun ev -> events := ev :: !events)) chrome_file;
      ]
    @ extra
  in
  List.iter Flight.subscribe sinks;
  { jsonl_oc; events; chrome_file; sinks }

(* Unsubscribe, close the JSONL stream and write the Chrome file. *)
let finish t =
  List.iter Flight.unsubscribe t.sinks;
  Option.iter close_out t.jsonl_oc;
  match t.chrome_file with
  | Some path ->
      Aring_obs.Chrome_trace.write_file path (List.rev !(t.events));
      Format.printf "chrome trace (%d events) written to %s@."
        (List.length !(t.events)) path
  | None -> ()

open Cmdliner

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write every flight record of the run as JSONL to $(docv).")

let chrome_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event file to $(docv) (open in \
           chrome://tracing or ui.perfetto.dev).")
