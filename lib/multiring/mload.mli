(** Multi-ring open-loop load driver.

    Runs the production workload ({!Aring_load.Load.spec}) through
    {!Aring_load.Load.drive} against a sharded {!Cluster}: [spec.rings]
    rings of [spec.n_nodes] physical nodes, sessions spread over every
    ring's daemons, KV ops routed by key shard, and
    [spec.mcas_permille] of the write mix issued as cross-shard
    multi-key cas. Latency is measured where a sharded client sees it:
    emergence in node 0's merged learner stream, with the merge-added
    wait (ring apply → merged emergence) reported separately.

    Every session-level dimension of the single-ring driver — churn,
    storms, slow receivers, sync reads, link rates, geo latency classes
    and partitions — applies here too, keyed by the physical node across
    all rings. *)

module Load = Aring_load.Load
module Stats = Aring_util.Stats
module Metrics = Aring_obs.Metrics

type result = {
  spec : Load.spec;
  ops_offered : int;
  writes_offered : int;
  writes_applied : int;
      (** Tracked writes submitted inside the window that emerged in
          node 0's merged stream by the end of the drain. *)
  offered_write_rate : float;
  applied_write_rate : float;  (** Merged items/s at node 0 in-window. *)
  write_latency_us : Stats.t;  (** Submit → merged emergence at node 0. *)
  merge_wait_us : Stats.t;  (** Ring apply → merged emergence at node 0. *)
  merged_total : int;
  per_ring_applied : int array;  (** In-window merged items per ring. *)
  mcas_submitted : int;
  mcas_commits : int;  (** Summed over node 0's per-ring replicas. *)
  mcas_aborts : int;
  mcas_retries : int;
  skip_credits_spent : int;  (** Skip ops delivered at node 0, all rings. *)
  queue_depth_peak : int;
  queue_depth_end : int;
  oracle_violations : int;  (** Summed over the per-ring oracles. *)
  converged : bool;
      (** Per-ring replica convergence and drained merges. *)
  end_ns : int;
  metrics : Metrics.t;
  sessions : Load.sessions;
      (** The driver's session-level outcome: reconnects, skipped
          arrivals, sync-read latency, slow inboxes, storm SLOs (the
          storm series counts merged emergence at node 0). *)
}

val run : Load.spec -> result
(** Deterministic for a given spec.
    @raise Invalid_argument on [rings < 1] or an invalid spec. *)

val pp_result : Format.formatter -> result -> unit
