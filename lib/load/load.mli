(** Production workload harness: open-loop client sessions at scale.

    Drives thousands of daemon client sessions against the replicated KV
    stack in simulation. The generator is {e open-loop}: each session
    has its own arrival process (Poisson or periodic) whose firing never
    waits for completions — a stalled cluster makes the in-flight queue
    grow, it does not throttle the offered load. That is the regime
    production systems die in, and the one closed-loop benches cannot
    reach.

    Dimensions beyond the existing benches and the fuzzer:

    - {b Sessions}: [sessions_per_node] real {!Aring_daemon.Daemon}
      sessions per daemon, spread over [n_groups] groups, so membership
      state, union routing and Join/Leave traffic are at production
      scale. KV ops ride the replica their key routes to; the session
      population drives who offers them.
    - {b Skew}: Zipf(θ) key popularity over [key_space] keys
      ({!Aring_util.Prng.zipf}), a weighted mix of op types and value
      sizes.
    - {b Churn}: exponential session lifetimes with reconnects, plus a
      {!storm} — a mass disconnect with reconnects spread over a short
      window, the classic reconnect storm.
    - {b Slow receivers}: extra sessions subscribed to the KV group
      that drain through {!Aring_daemon.Daemon.pump} at a bounded rate,
      exercising head-of-line isolation.
    - {b Network asymmetry}: per-node link-rate overrides, a WAN/geo
      latency-class matrix ({!Aring_sim.Netsim.set_latency_classes}) and
      a partition window.
    - {b Shapes}: diurnal/step/ramp/square offered-rate schedules via
      {!Aring_harness.Scenario} builders.

    One generator, {!drive}, serves every ring count: it runs against a
    small {!target}. {!run} supplies the single-ring target, built by
    {!Aring_app.Kv_scenario.build_cluster};
    [Aring_multiring.Mload.run] supplies the sharded multi-ring one.
    At its small end, one [Periodic] session per node, a spec is the
    paper's KV workload (one client per server at a fixed rate): the
    [kv] bench runs that preset.
    Every run carries the KV consistency oracle; results surface the
    SLO inputs the [load] bench gates on: p99/p99.9 write latency,
    offered vs. applied rate, open-loop queue depth, storm degradation
    and post-storm recovery time. *)

open Aring_ring
open Aring_sim
module Stats = Aring_util.Stats
module Metrics = Aring_obs.Metrics

(** Per-session arrival process. [Poisson] draws exponential
    inter-arrival gaps (memoryless, bursty); [Periodic] fires at the
    exact mean interval (deterministic pacing). *)
type arrival = Poisson | Periodic

type storm = {
  storm_at_ns : int;  (** Mass disconnect instant. *)
  storm_sessions : int;  (** How many sessions drop (capped to the population). *)
  storm_window_ns : int;
      (** Reconnects are spread uniformly over this window after the
          disconnect. *)
}

type churn = {
  mean_lifetime_ns : int;
      (** Mean exponential session lifetime; 0 disables background
          churn. *)
  reconnect_delay_ns : int;  (** Downtime before a churned session returns. *)
  storm : storm option;
}

type slow_spec = {
  slow_per_node : int;  (** Slow-receiver sessions per daemon. *)
  drain_per_sec : float;  (** Their bounded drain rate, messages/s each. *)
}

type geo = {
  classes : int array;  (** Node → latency class (length [n_nodes]). *)
  latency_matrix : int array array;  (** Extra one-way ns, class × class. *)
}

type link = { l_node : int; l_up_bps : int option; l_down_bps : int option }

type spec = {
  label : string;
  n_nodes : int;
  net : Profile.net;
  tier : Profile.tier;
  params : Params.t;
  sessions_per_node : int;
  n_groups : int;  (** Sessions join group [i mod n_groups]. *)
  arrival : arrival;
  ops_per_sec : float;  (** Aggregate offered rate across all sessions. *)
  load : (int * float) list;
      (** Piecewise-constant rate schedule (ops/sec), reusing the
          {!Aring_harness.Scenario} step/ramp/square builders. *)
  key_space : int;
  zipf_theta : float;
  value_mix : (int * int) list;  (** [(bytes, weight)] value-size mix. *)
  read_permille : int;
  sync_read_permille : int;
  cas_permille : int;
  del_permille : int;
  mcas_permille : int;
      (** Of writes: cross-shard multi-key cas (multi-ring runs only). *)
  rings : int;
      (** Number of ordering rings. 1 = classic single-ring {!run};
          multi-ring specs execute via [Aring_multiring.Mload.run]. *)
  churn : churn option;
  slow : slow_spec option;  (** Per daemon: on every ring at [rings > 1]. *)
  geo : geo option;
  links : link list;
      (** Per physical node: on [rings > 1] a link override applies to
          the node's participant in every ring. *)
  partition : Aring_app.Kv_scenario.partition option;
      (** Islands are physical nodes, cut away in every ring.
          {!validate} rejects an empty island, a node outside
          [[0, n_nodes)], an island holding every node and a window
          with [heal_at_ns <= part_at_ns]. *)
  warmup_ns : int;
  measure_ns : int;
  drain_ns : int;
  seed : int64;
}

(** The session-level outcome of {!drive}, common to every ring count. *)
type sessions = {
  sessions_started : int;  (** Distinct session slots (excluding slow receivers). *)
  sessions_peak : int;  (** Peak concurrently connected sessions. *)
  reconnects : int;  (** Churn + storm reconnects completed. *)
  ops_offered : int;  (** Arrivals fired inside the measurement window. *)
  ops_skipped : int;  (** Arrivals at disconnected sessions (not offered). *)
  writes_offered : int;
  sync_read_latency_us : Stats.t;
  queue_depth_peak : int;  (** Peak open-loop in-flight tracked writes. *)
  queue_depth_end : int;  (** In-flight residue after the drain. *)
  slow_inbox_peak : int;
  slow_inbox_end : int;
  storm_steady_rate : float;  (** Applied writes/s at node 0 before the storm. *)
  storm_rate : float;  (** Applied writes/s at node 0 during the storm window. *)
  storm_degradation : float;
      (** [1 - storm_rate/storm_steady_rate], clamped to [0, 1]; 0 when
          no storm ran. *)
  storm_recovered_ms : float;
      (** Storm-window end → all storm sessions reconnected and the
          in-flight queue back under twice its pre-storm peak. Negative
          when it never recovered (or no storm ran: 0). *)
  storm_all_reconnected : bool;  (** True (vacuously) when no storm ran. *)
}

(** The single-ring result: the {!sessions} fields (same meaning) plus
    the replica outcome. *)
type result = {
  spec : spec;
  sessions_started : int;
  sessions_peak : int;
  reconnects : int;
  ops_offered : int;
  ops_skipped : int;
  writes_offered : int;
  writes_applied : int;  (** Applied at node 0 inside the window. *)
  offered_write_rate : float;
  applied_write_rate : float;
  write_latency_us : Stats.t;  (** Submit→apply, tracked puts and cas. *)
  sync_read_latency_us : Stats.t;
  queue_depth_peak : int;
  queue_depth_end : int;
  slow_inbox_peak : int;
  slow_inbox_end : int;
  storm_steady_rate : float;
  storm_rate : float;
  storm_degradation : float;
  storm_recovered_ms : float;
  storm_all_reconnected : bool;
  oracle : Aring_app.Oracle.t;
  oracle_violations : int;
  converged : bool;
  end_ns : int;
  metrics : Metrics.t;
      (** Carries the run's ["load.*"] series alongside netsim / daemon /
          app counters and the ["span.*"] stage histograms. *)
}

val default_spec : spec
(** 4 nodes, 500 sessions each (2000 total), 16 groups, Poisson
    arrivals at 12k ops/s aggregate, Zipf(0.99) over 512 keys, mixed
    value sizes, 70% writes; no churn, no slow receivers, symmetric
    network. 100 ms warmup, 300 ms measurement. *)

val run : spec -> result
(** Execute the workload on a single ring of the discrete-event
    simulator, with the span collector attached. Deterministic for a
    given spec.
    @raise Invalid_argument on an invalid spec, [rings <> 1] or
    [mcas_permille <> 0]. *)

(** {1 The shared driver} *)

(** What {!drive} runs against. Participant [ring * n_nodes + node] is
    [node]'s member of ring [ring]; sessions [i] live on the daemon of
    ring [i / n_nodes mod rings] at node [i mod n_nodes]. *)
type target = {
  sim : Aring_sim.Netsim.t;  (** Not yet run: {!drive} shapes it first. *)
  daemon : ring:int -> node:int -> Aring_daemon.Daemon.t;
  kv : ring:int -> node:int -> Aring_app.Kv.t;
  shard : string -> int;  (** The ring a key routes to. *)
  mcas :
    (node:int -> id:string -> writes:(string * string) list -> unit) option;
      (** Cross-shard multi-key cas; required when [mcas_permille > 0]. *)
  completes_at : int -> int;
      (** The node whose stream completes a write submitted from node
          [i]: its own replica, or node 0's merged stream. *)
  on_applied : (node:int -> Aring_app.Op.t -> int option) -> unit;
      (** The completion hook: install observers that call [applied
          ~node op] for every op applied (or emerged) at [node]. Ops at
          node 0 feed the storm series; [applied] returns the submit time
          of a tracked write completing there, once. *)
  settled : unit -> bool;
      (** Replicas agree: with no sync read pending, the drain ends. *)
}

val validate : prefix:string -> spec -> unit
(** The spec checks common to every ring count.
    @raise Invalid_argument ["<Prefix>.run: ..."] on a bad dimension. *)

val drive : prefix:string -> metrics:Metrics.t -> spec -> target -> sessions
(** Shape the network, populate and drive the open-loop sessions to the
    horizon, and drain until [settled] or the drain deadline. Counters
    and gauges land in [metrics] as ["<prefix>.*"]; the PRNG salt is the
    prefix's ASCII bytes. Call {!validate} first. *)

val pp_result : Format.formatter -> result -> unit
