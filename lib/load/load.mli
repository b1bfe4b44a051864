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
      exercising head-of-line isolation. One that falls behind by the
      daemon's inbox limit is cut and reconnects under the same name
      one pump tick (4 ms) later.
    - {b Network asymmetry}: a WAN/geo latency-class matrix
      ({!Aring_sim.Netsim.set_latency_classes}) and a partition window.

    One generator, {!start}, serves every ring count: it runs against a
    small {!target}, and {!drive} is {!start} plus the drain. {!run}
    supplies the single-ring target, built by
    {!Aring_app.Kv_scenario.build_cluster};
    [Aring_multiring.Mload.run] supplies the sharded multi-ring one, and
    the fuzz runner's KV runs start a spec derived from their schedule
    on their own cluster, then judge it themselves.
    Both return one {!result}, built by {!val-result}, and print through
    one {!pp_result}.
    At its small end, one [Periodic] session per node, a spec is the
    paper's KV workload (one client per server at a fixed rate): the
    [kv] bench runs that preset.
    Every run carries the KV consistency oracle; results surface the
    SLO inputs the [load] bench gates on: p99/p99.9 write latency,
    offered vs. applied rate, open-loop queue depth, storm degradation
    and post-storm recovery time.

    Generating an op costs about what it carries: keys come from a
    table built once at set-up ({!key_table}), and each written value
    is built in one buffer ({!tagged_value}), with no [Printf]. The op
    is then written once, into the daemon's frame (see
    [Aring_daemon.Daemon.multicast_write]). *)

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

type spec = {
  label : string;
  n_nodes : int;
  net : Profile.net;
  tier : Profile.tier;
  params : Params.t;
  sessions_per_node : int;
  n_groups : int;  (** Sessions join group [i mod n_groups]. *)
  arrival : arrival;
  ops_per_sec : float;
      (** Aggregate offered rate across all sessions, constant over the
          run; finite and [>= 0] ({!validate}). Zero offers nothing. *)
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
  ops_skipped : int;
      (** Arrivals at disconnected sessions or on a dead participant
          (not offered). *)
  writes_offered : int;
  sync_read_latency_us : Stats.t;
  queue_depth_peak : int;  (** Peak open-loop in-flight tracked writes. *)
  queue_depth_end : int;  (** In-flight residue after the drain. *)
  slow_inbox_peak : int;
      (** Peak of the messages parked in all slow inboxes together,
          sampled every 2 ms. *)
  slow_inbox_end : int;
  slow_cuts : int;
      (** Slow sessions the daemons cut at
          {!Aring_daemon.Daemon.slow_inbox_limit_bytes}; each
          reconnected. *)
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

(** The result of a run at any ring count: the {!sessions} fields (same
    meaning), the replica outcome and, on [rings > 1], the merge and
    mcas outcome. *)
type result = {
  spec : spec;
  sessions_started : int;
  sessions_peak : int;
  reconnects : int;
  ops_offered : int;
  ops_skipped : int;
  writes_offered : int;
  writes_applied : int;
      (** One ring: ops applied at node 0 inside the window. More rings:
          tracked writes submitted inside the window that emerged in node
          0's merged stream by the end of the drain. *)
  offered_write_rate : float;
  applied_write_rate : float;
      (** In-window applied ops (one ring) or merged items (more rings)
          per second at node 0. *)
  write_latency_us : Stats.t;
      (** One ring: submit → apply at the submitting replica, tracked
          puts and cas. More rings: submit → merged emergence at node 0,
          for writes submitted inside the window. *)
  sync_read_latency_us : Stats.t;
  queue_depth_peak : int;
  queue_depth_end : int;
  slow_inbox_peak : int;
  slow_inbox_end : int;
  slow_cuts : int;
  storm_steady_rate : float;
  storm_rate : float;
      (** On [rings > 1] the storm series counts merged emergence at node
          0. *)
  storm_degradation : float;
  storm_recovered_ms : float;
  storm_all_reconnected : bool;
  merge_wait_us : Stats.t;
      (** Ring apply → merged emergence at node 0; empty on one ring. *)
  merged_total : int;  (** In-window merged items at node 0; 0 on one ring. *)
  per_ring_applied : int array;
      (** In-window merged items per ring; empty on one ring. *)
  mcas_submitted : int;  (** The mcas fields are 0 on one ring. *)
  mcas_commits : int;  (** Summed over node 0's per-ring replicas. *)
  mcas_aborts : int;
  mcas_retries : int;
  skip_credits_spent : int;
      (** Skip ops delivered at node 0, all rings; 0 on one ring. *)
  oracles : Aring_app.Oracle.t array;  (** One consistency oracle per ring. *)
  oracle_violations : int;  (** Summed over [oracles]. *)
  converged : bool;
      (** Replica convergence (per ring), and drained merges on
          [rings > 1]. *)
  end_ns : int;
  metrics : Metrics.t;
      (** Carries the run's ["load.*"] series (["mload.*"] on a
          multi-ring run) alongside netsim / daemon / app counters; on
          one ring also the ["span.*"] stage histograms. *)
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
  sim : Aring_sim.Netsim.t;  (** Not yet run: {!start} shapes it first. *)
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

val key_table : int -> string array
(** [key_table n] holds the name of each of [n] keys:
    [Printf.sprintf "k%05d" i] at index [i]. {!drive} builds it once. *)

val tagged_value : string -> int -> int -> string -> int -> string
(** [tagged_value prefix a b suffix bytes] is
    [Aring_app.Kv_scenario.pad (Printf.sprintf "%s%d:%d:%s" prefix a b suffix) bytes],
    written into one fresh buffer: the unique, dot-padded value a write
    carries (prefix ["w:"] for a put, ["c:"] for a cas, ["x:m:"] with
    suffix ["a:"] or ["b:"] for an mcas pair). *)

val validate : prefix:string -> spec -> unit
(** The spec checks common to every ring count.
    @raise Invalid_argument ["<Prefix>.run: ..."] on a bad dimension. *)

val start :
  prefix:string -> metrics:Metrics.t -> spec -> target -> unit -> sessions
(** Shape the network and schedule the open-loop sessions (arrivals up
    to the horizon, churn, storm, slow receivers, sampler) without
    running the sim; the returned function reads the {!sessions}
    outcome once the caller has run it. A session whose participant is
    dead issues nothing: its arrivals count in [ops_skipped]. [net],
    [tier] and [params] are not read. Counters and gauges land in
    [metrics] as ["<prefix>.*"]; the PRNG salt is the prefix's ASCII
    bytes. Call {!validate} first. *)

val drive : prefix:string -> metrics:Metrics.t -> spec -> target -> sessions
(** {!start}, then run the sim in 25 ms steps to the horizon and drain
    until [settled] with no sync read pending, or the drain deadline. *)

val result :
  spec ->
  sessions ->
  writes_applied:int ->
  applied:int ->
  write_latency_us:Stats.t ->
  oracles:Aring_app.Oracle.t array ->
  converged:bool ->
  end_ns:int ->
  metrics:Metrics.t ->
  result
(** The one builder of a {!result}: the [sessions] fields, the replica
    outcome, [offered_write_rate] and [applied_write_rate] ([applied]
    items at node 0) over the measurement window, and
    [oracle_violations] summed over [oracles]. The merge and mcas fields
    are 0 or empty; a multi-ring run sets them on the returned record. *)

val pp_result : Format.formatter -> result -> unit
(** The one printer, at every ring count: merge and mcas lines only on
    [rings > 1], per-stage latency when [metrics] holds ["span.*"]. *)
