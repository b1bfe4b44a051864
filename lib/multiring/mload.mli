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
    storms, slow receivers, sync reads, geo latency classes and
    partitions — applies here too, keyed by the physical node across
    all rings. The run returns the single-ring driver's own
    {!Aring_load.Load.result}, built by {!Aring_load.Load.result} with
    the merge and mcas fields filled in; {!Aring_load.Load.pp_result}
    prints it. *)

type result = Aring_load.Load.result

val run : Aring_load.Load.spec -> result
(** Deterministic for a given spec.
    @raise Invalid_argument on [rings < 1] or an invalid spec. *)
