(** JSONL serialization of trace events: one JSON object per line with a
    stable ["ev"] discriminator. Round-trips exactly, so traces written
    with [--trace out.jsonl] can be re-read by the trace-dump tool. *)

val to_line : Trace.event -> string
val of_line : string -> Trace.event
(** Raises {!Json.Parse_error} on malformed JSON or on missing or
    ill-typed fields. *)

val jsonl_sink : out_channel -> Trace.sink
(** Streams each event as one line; [flush] flushes the channel. *)

val read_file : string -> Trace.event list
(** Read a JSONL trace file (blank lines ignored). *)
