(** Chrome trace-event exporter ([chrome://tracing] / Perfetto JSON).

    Renders a trace as a per-node timeline: every node is a thread row,
    the interval between consecutive accepted token receipts is a
    duration slice on the receiving node's row (so one ring rotation
    reads as a staircase across the rows), data sends / deliveries /
    retransmissions / views / faults are instant events, and the token's
    [fcc] field is exported as a counter track. *)

val to_string : Flight.event list -> string
(** Events need not be sorted; the output object has a ["traceEvents"]
    list. Codes the view does not show are skipped. *)

val write_file : string -> Flight.event list -> unit
