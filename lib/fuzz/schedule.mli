(** Fault schedules: the genotype of the simulation fuzzer.

    A schedule is a fully explicit description of one adversarial run —
    hosted app, cluster shape, protocol parameters, workload, and a list
    of timed fault events — plus the PRNG seed that drives the
    simulator's own randomness (per-receiver loss, workload jitter,
    burst sampling). Everything the runner does is a deterministic
    function of the schedule, so a schedule is the whole reproducer:
    serialize it, commit it to the corpus, replay it forever.

    Schedules are generated from a single {!Aring_util.Prng} seed
    ({!generate}), mutated structurally by the shrinker, and serialized
    as single-line JSON ({!to_string}/{!of_string}) with integer-only
    fields so round-trips are exact. *)

(** One timed fault event. All times are simulated nanoseconds; the
    generator keeps every window inside [[0, horizon_ns)], so the network
    is whole again when the drain phase starts (crashes are permanent). *)
type fault =
  | Crash of { at_ns : int; node : int }
      (** Crashes are physical: the node dies in every ring. *)
  | Partition of { at_ns : int; until_ns : int; island : int list; ring : int }
      (** Physical nodes in [island] are cut from the rest in both
          directions; each side keeps talking internally. [ring] scopes
          the cut to one ordering ring of a multi-ring run ([-1] = all
          rings, the only value single-ring schedules carry). *)
  | Loss_burst of { at_ns : int; until_ns : int; permille : int }
      (** Extra random per-receiver loss during the window, on top of the
          configured base loss. *)
  | Token_blackout of { at_ns : int; until_ns : int; ring : int }
      (** All regular and commit tokens are dropped at the switch
          ([ring] scoped like partitions): forces token-retransmission,
          token-loss declaration, and membership re-formation. *)

(** The stack a schedule runs on ({!Runner.run}). It is saved with the
    schedule, so a reproducer replays on the stack that found it. *)
type app =
  | Bare  (** Raw ring members judged by convergence probes; one ring. *)
  | Kv  (** Daemons and replicated-KV replicas, at any ring count. *)

val app_of_string : string -> (app, string) result  (** ["bare"] or ["kv"]. *)

type config = {
  app : app;
  n_nodes : int;
  rings : int;  (** Ordering rings; more than one needs [app = Kv]. *)
  tier_ids : int list;  (** Per node: 0 = library, 1 = daemon, 2 = spread. *)
  ten_gig : bool;
  base_loss_permille : int;
  small_switch_buffer : bool;
  accelerated_window : int;
  personal_window : int;
  aggressive : bool;  (** Priority method 1 (true) or 2 (false). *)
  max_seq_gap : int;
  payload : int;
  submit_gap_ns : int;  (** Per-node inter-submission interval. *)
  safe_permille : int;  (** Fraction of workload using Safe delivery. *)
  horizon_ns : int;  (** Fault + load window. *)
  drain_ns : int;
      (** Post-heal settling budget for the liveness check, which every
          run makes. *)
}

type t = { seed : int64; config : config; faults : fault list }

val generate :
  ?app:app -> ?max_nodes:int -> ?rings:int -> seed:int64 -> unit -> t
(** Derive a complete random schedule from [seed]. Equal seeds yield
    equal schedules. [app] (default [Bare]) is set, not drawn.
    [max_nodes] (default 8, the historical bound — the default
    preserves the seed→schedule mapping exactly) caps the drawn
    cluster size; raise it to fuzz larger rings. [rings] (default 1)
    makes the run multi-ring; fault ring scopes are drawn after each
    fault's own draws and only when [rings > 1], so single-ring
    schedules consume the exact historical PRNG stream and pinned
    corpus schedules regenerate bit-identically.
    @raise Invalid_argument if [rings > 1] and [app = Bare]. *)

val params : config -> Aring_ring.Params.t
(** Protocol parameters encoded by the schedule: windows, priority method
    and [max_seq_gap] vary per schedule; everything else is
    {!Aring_ring.Params.snappy}, whose short failure-detection timeouts
    resolve membership events quickly in simulated time. *)

val tier : int -> Aring_sim.Profile.tier
(** Decode one entry of [tier_ids]. *)

val net : config -> Aring_sim.Profile.net
(** Network profile: 1G/10G, base loss, optionally a tiny switch buffer. *)

val fault_count : t -> int
val fault_window : fault -> int * int  (** (start, end] of a fault's effect. *)

val to_string : t -> string
(** Single-line JSON; [of_string (to_string s) = s] exactly. A [Bare]
    app and one ring are omitted. *)

val of_string : string -> t
(** Reads {!to_string}'s form, and older files' ["liveness": true],
    which it ignores.
    @raise Aring_obs.Json.Parse_error on malformed JSON, on missing or
    ill-typed fields, on [rings > 1] without ["app":"kv"], or on any
    ["liveness"] other than [true]. *)

val pp : Format.formatter -> t -> unit
