(** Online sample statistics for latency/throughput measurement.

    Collects samples and reports count, mean, max and percentiles.
    Percentiles retain all samples (the experiment harness collects
    bounded sample counts, so this is acceptable and exact).

    Allocation: {!add} and {!add_ns} allocate nothing per sample beyond
    the sample array's amortised doubling; the running moments are
    stored as raw doubles. A caller that computes a float for {!add}
    boxes it; {!add_ns} takes an int. Every statistic is bit-identical
    to the previous boxed-moment accumulator's over the same samples. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** [add t x] records sample [x]. *)

val add_ns : t -> int -> unit
(** [add_ns t ns] is [add t (float_of_int ns /. 1e3)]: a duration in
    nanoseconds recorded in µs. The per-op entry point: a float passed
    across modules is boxed (dev builds compile with [-opaque]), an int
    is not. *)

val count : t -> int
val mean : t -> float

val max_value : t -> float
(** [max_value t] is the largest sample; [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]] is the nearest-rank percentile;
    [nan] when empty. *)

val median : t -> float

val p999 : t -> float
(** The 99.9th percentile — tail behavior at bench sample sizes. *)

val merge : t -> t -> t
(** [merge a b] is a statistic over the union of both sample sets. *)
