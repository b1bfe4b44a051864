(* Trace sink assembly shared by the simulator CLIs: the Flight record
   stream as JSONL, plus any [extra] sinks (the live invariant checker),
   each subscribed until [finish]. A Chrome trace is made from the JSONL
   file offline, by [accelring_trace FILE --chrome OUT]. *)

module Flight = Aring_obs.Flight
module Trace = Aring_obs.Trace

type t = { jsonl_oc : out_channel option; sinks : Trace.sink list }

let install ?(extra = []) ~trace_file () =
  let jsonl_oc = Option.map open_out trace_file in
  let sinks =
    Option.to_list
      (Option.map (fun oc -> Trace.fn_sink (Flight.output_line oc)) jsonl_oc)
    @ extra
  in
  List.iter Flight.subscribe sinks;
  { jsonl_oc; sinks }

(* Unsubscribe and close the JSONL stream. *)
let finish t =
  List.iter Flight.unsubscribe t.sinks;
  Option.iter close_out t.jsonl_oc

open Cmdliner

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write every flight record of the run as JSONL to $(docv) \
           ($(b,accelring_trace) $(docv) $(b,--chrome) OUT turns it into a \
           Chrome trace-event file, $(b,--rotation) N profiles node N's \
           token rotations).")
