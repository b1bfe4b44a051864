(** Trace sinks: consumers of the {!Flight} record stream.

    The trace is the stream of flight records itself: a sink is a
    {!Flight.subscriber}, and {!with_sink} subscribes it for the length
    of a call. The [--trace] file is {!Flight.output_line} behind
    {!fn_sink}. *)

type sink = Flight.subscriber

val fn_sink : (Flight.event -> unit) -> sink
(** A sink handing each record to the function as a {!Flight.event}
    (one allocation per record). *)

val feed : sink -> Flight.event -> unit
(** Hand a recorded event to a sink, as {!Flight.record_at} would have:
    offline tools replay a file through the live instruments. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] subscribes [s], runs [f], and unsubscribes [s]. *)
