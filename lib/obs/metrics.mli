(** Metrics registry: named counters, gauges and fixed-bucket histograms.

    The unified surface over the per-subsystem stats records: each
    subsystem exports its counters under a stable dotted name (e.g.
    ["engine.rounds"], ["netsim.switch_drops"]), per-node registries
    merge into cluster totals, and the result prints as one table.
    Handles are mutable records — a hot path holding a handle pays one
    store per update. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

(** {1 Counters} *)

val counter : t -> string -> counter
(** Get or create. The same name always returns the same handle. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val counter_value : t -> string -> int
(** 0 when the counter does not exist. *)

(** {1 Gauges} *)

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

val default_bounds : float array
(** Latency-flavored µs buckets, 1 µs … 10 s. *)

val exponential_bounds : lo:float -> factor:float -> count:int -> float array

val histogram : ?bounds:float array -> t -> string -> histogram
(** Get or create with the given strictly-increasing upper bounds (plus
    an implicit overflow bucket). [bounds] is ignored when the histogram
    already exists. *)

val observe : histogram -> float -> unit
(** [observe h v] counts [v] in its bucket and adds it to the sum.
    Allocates nothing, whatever the number of buckets (a caller that
    computes [v] boxes it; see {!observe_ns}). Counts, sum, mean and
    quantiles are bit-identical to the previous boxed-sum histogram's
    over the same samples. *)

val observe_ns : histogram -> int -> unit
(** [observe_ns h ns] is [observe h (float_of_int ns /. 1_000.0)]: a
    duration in nanoseconds counted in µs. The per-op entry point: a
    float passed across modules is boxed (dev builds compile with
    [-opaque]), an int is not, so this allocates nothing at all. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_mean : histogram -> float

val hist_quantile : histogram -> float -> float
(** [hist_quantile h q] with [q] in [0,1]: linear interpolation within
    the landing bucket; [nan] when empty. *)

val hist_bucket_counts : histogram -> int array
(** Per-bucket counts, overflow bucket last. *)

val hist_merge : histogram -> histogram -> histogram
(** Sum of both; raises [Invalid_argument] on differing bounds. *)

(** {1 Registry operations} *)

val merge : t -> t -> t
(** Counters sum, histograms merge, gauges take the later registry's
    value. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val histograms : t -> (string * histogram) list
val pp : Format.formatter -> t -> unit
