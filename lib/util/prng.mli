(** Deterministic pseudo-random number generator (SplitMix64).

    The simulator must be fully reproducible: every run with the same seed
    produces the same event trace. SplitMix64 is small, fast, and passes
    BigCrush; it is more than adequate for workload generation and loss
    injection.

    Allocation: the state is held unboxed, so {!int}, {!bool},
    {!bernoulli}, {!exponential_int} and {!zipf} allocate nothing per
    draw; {!next_int64} allocates only its boxed result.
    Every stream is bit-identical to the previous boxed-state
    generator's for the same seed and call sequence, so workloads, fault
    schedules and pinned trace hashes do not depend on how the state is
    stored. *)

type t

val create : seed:int64 -> t
(** [create ~seed] is a fresh generator. Equal seeds give equal streams. *)

val next_int64 : t -> int64
(** [next_int64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)] — exactly uniform, via
    rejection sampling rather than a biased [mod]. Requires [bound > 0]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential_int : t -> mean:float -> int
(** [exponential_int t ~mean] samples an exponential distribution of
    mean [mean] and truncates it toward zero; used for Poisson
    inter-arrivals and session lifetimes on the integer-nanosecond
    clock. An int, so no float is boxed on the way out. *)

(** {1 Zipf sampling}

    Skewed key-popularity draws for workload generation: rank [i] (from
    0) is drawn with probability proportional to [1/(i+1)^theta]. The
    table is a Walker/Vose alias structure — O(n) to build, O(1) per
    draw, and every draw consumes exactly two PRNG outputs, so the
    stream position after [k] draws depends only on the seed and [k]. *)

type zipf

val zipf_table : n:int -> theta:float -> zipf
(** [zipf_table ~n ~theta] builds the alias table for ranks
    [0 .. n-1]. [theta = 0.0] degenerates to the uniform distribution;
    typical workload skew is 0.9–1.1 (YCSB uses 0.99). Requires
    [n > 0] and [theta >= 0]. *)

val zipf : t -> zipf -> int
(** [zipf t z] draws a rank in [0 .. n-1]; lower ranks are more
    popular. Deterministic for a given seed and draw sequence. *)
