(** Scenario-driven KV workloads: build a daemon+replica cluster on the
    simulator, offer a skewed read/write mix, and measure applied
    throughput, write and sync-read latency, and state-transfer behavior
    — the app-level counterpart of {!Aring_harness.Scenario}, reusing
    its load-schedule builders (interpret the rate as aggregate ops/sec
    instead of Mbps).

    Every run attaches the consistency {!Oracle}; a result with
    [oracle_violations > 0] is a correctness failure, not a benchmark
    number. *)

open Aring_ring
open Aring_sim

type partition = {
  part_at_ns : int;
  heal_at_ns : int;
  island : int list;  (** Nodes cut away from the rest of the cluster. *)
}

type spec = {
  label : string;
  n_nodes : int;
  net : Profile.net;
  tier : Profile.tier;
  params : Params.t;
  key_space : int;
  hot_keys : int;  (** First [hot_keys] keys of the space. *)
  hot_permille : int;  (** Traffic share the hot keys receive. *)
  value_bytes : int;
  read_permille : int;
  sync_read_permille : int;
  cas_permille : int;
  del_permille : int;  (** Remainder after the four mixes = puts. *)
  ops_per_sec : float;  (** Aggregate offered op rate. *)
  load : (int * float) list;
      (** Piecewise-constant ops/sec schedule; same shape as
          {!Aring_harness.Scenario.spec.load} (use its builders).
          Empty = constant [ops_per_sec]. *)
  warmup_ns : int;
  measure_ns : int;
  drain_ns : int;  (** Post-workload budget to settle and converge. *)
  seed : int64;
  partition : partition option;
      (** Optional single partition window, for exercising freeze /
          merge / state transfer inside a workload run. *)
}

type result = {
  spec : spec;
  writes_submitted : int;
  writes_applied : int;  (** At node 0, inside the measurement window. *)
  write_ops_per_sec : float;
      (** Applied writes at node 0 over the measurement window. *)
  write_latency_us : Aring_util.Stats.t;
      (** Submit-to-apply at the submitting replica (puts and cas). *)
  sync_read_latency_us : Aring_util.Stats.t;
      (** Submit-to-answer for Safe-ordered reads. *)
  reads : int;  (** Local reads served across replicas. *)
  installs : int;
  transfer_us : Aring_util.Stats.t;
      (** Per-install regular-view-to-install durations. *)
  oracle : Oracle.t;
  oracle_violations : int;
  converged : bool;
      (** All replicas settled, synced and at equal (applied, digest)
          by the end of the run. *)
  final_store_size : int;  (** At node 0. *)
  end_ns : int;
  metrics : Aring_obs.Metrics.t;
      (** ["netsim.*"], ["daemon.*"]/["engine.*"] and ["app.*"] counters
          summed over nodes. *)
}

val snappy_params : unit -> Aring_ring.Params.t
(** Accelerated defaults with fast membership timeouts, sized so that
    partition merges complete well inside a scenario's drain budget.
    Shared by the KV and workload-harness scenarios. *)

val pad : string -> int -> string
(** [pad tag bytes]: a workload value of [max bytes (length tag)] bytes
    that starts with the unique [tag], padded with dots. *)

val install_partition : Netsim.t -> int -> partition -> unit
(** Drop every packet across the island boundary inside the window,
    for a cluster of [n] physical nodes: participant [pid] is node
    [pid mod n], so on a multi-ring deployment the island is cut away
    in every ring. Replaces the sim's drop predicate. *)

val kv_converged : Kv.t array -> bool
(** Every replica settled, synced and at equal (applied, digest). *)

val default_spec : spec
(** 4 nodes, 1-gigabit network, daemon tier, accelerated params, 64-key
    space with 8 hot keys taking 80% of traffic, 128-byte values,
    25% reads / 5% sync reads / 10% cas / 7% dels, 20k ops/sec,
    50 ms warmup + 200 ms measurement + 1 s drain, no partition. *)

val run : spec -> result

type transfer_result = {
  entries_transferred : int;
  bytes_transferred : int;  (** Sum of key+value bytes in the snapshot. *)
  xfer_us : float;  (** Merge-view-to-install at the rejoining node. *)
  total_installs : int;
}

val measure_transfer :
  ?n_nodes:int ->
  ?value_bytes:int ->
  ?seed:int64 ->
  store_entries:int ->
  unit ->
  transfer_result
(** Isolated state-transfer timing vs store size: preload every replica
    with [store_entries] identical entries, cut the last node away,
    run a short write burst on the majority so states diverge, heal, and
    time the rejoining node's snapshot install. Raises [Failure] if the
    transfer never completes. *)

val pp_result : Format.formatter -> result -> unit
