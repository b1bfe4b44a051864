(** Benchmark scenarios: build a simulated cluster, offer an open-loop load,
    and measure delivered throughput and delivery latency.

    This reproduces the paper's methodology (Section IV-A): 8 servers, one
    sending client per server injecting at a fixed rate, every receiving
    client receiving all messages; at each offered throughput level we
    record the average latency to deliver a message. *)

open Aring_wire
open Aring_ring
open Aring_sim

type spec = {
  label : string;
  n_nodes : int;
  net : Profile.net;
  tier : Profile.tier;
  params : Params.t;
  payload : int;  (** Clean application payload bytes per message. *)
  service : Types.service;
  offered_mbps : float;  (** Aggregate offered load, clean payload only. *)
  load : (int * float) list;
      (** Piecewise-constant load schedule: [(t_ns, mbps)] switches the
          aggregate offered load to [mbps] from simulated time [t_ns] on.
          Before the first entry the rate is [offered_mbps]; entries must
          be ascending. Empty (the default) = constant [offered_mbps].
          Build with {!step_load}. *)
  warmup_ns : int;
  measure_ns : int;
  seed : int64;
}

type phase = {
  p_offered_mbps : float;  (** Rate in force at the phase start. *)
  p_delivered_mbps : float;
  p_latency_us : Aring_util.Stats.t;
  p_deliveries : int;
}
(** Per-load-segment slice of the measurement window (see [spec.load]). *)

type result = {
  spec : spec;
  delivered_mbps : float;
      (** Clean-payload throughput actually delivered, averaged over
          receiving nodes, inside the measurement window. *)
  latency_us : Aring_util.Stats.t;
      (** Submit-to-delivery latency samples (µs) across all receivers. *)
  deliveries : int;
  switch_drops : int;
  random_losses : int;
  retransmissions : int;
  token_rounds : int;  (** Rounds completed at node 0. *)
  phases : phase list;
      (** The measurement window cut at every load-schedule boundary,
          in time order; a single phase for a constant load. *)
  metrics : Aring_obs.Metrics.t;
      (** Registry holding the run's ["netsim.*"] counters and the
          ["engine.*"] counters summed over nodes (for {!run}). *)
}

val default_spec : spec
(** 8 nodes, 1-gigabit network, daemon tier, accelerated defaults, 1350-byte
    payloads, Agreed service, 200 Mbps offered, 100 ms warmup + 400 ms
    measurement. Override fields as needed. *)

(** {2 Load profiles}

    Builders for [spec.load]. Times are absolute simulated time, so place
    shifts inside the measurement window ([warmup_ns ..
    warmup_ns + measure_ns]) to see them in {!result.phases}. *)

val step_load :
  low:float -> high:float -> at_ns:int -> until_ns:int -> (int * float) list
(** [low] until [at_ns], [high] until [until_ns], then [low] again. *)

val run : spec -> result
(** Execute the scenario on the discrete-event simulator. *)

val run_custom : spec -> participants:Participant.t array -> result
(** Run the same workload/measurement over arbitrary participants (e.g.
    the sequencer baseline); [spec.params] is ignored, and the
    ring-specific stats ([retransmissions], [token_rounds]) are zero. *)

val find_max_throughput :
  ?lo_mbps:float -> ?hi_mbps:float -> ?tolerance_mbps:float -> spec -> result
(** Binary-search the highest offered load the system still sustains
    (delivers ≥ 97% of) between [lo_mbps] and [hi_mbps]; returns the
    result at that load. *)

val pp_result : Format.formatter -> result -> unit
