(** Replicated-KV cluster plumbing: the one builder of the
    Member+Daemon+Kv+Oracle stack on the simulator, at any ring count, a
    partition window, the convergence test and the snappy membership
    params. The open-loop KV workload itself is a {!Aring_load.Load}
    spec (one periodic session per node is the paper's methodology);
    this module also keeps the isolated state-transfer timing, which is
    not a workload. *)

open Aring_sim

type partition = {
  part_at_ns : int;
  heal_at_ns : int;  (** Must be after [part_at_ns]. *)
  island : int list;
      (** Nodes cut away from the rest of the cluster: non-empty, in
          [[0, n)], and not every node. *)
}

val snappy_params : unit -> Aring_ring.Params.t
(** Accelerated defaults with fast membership timeouts, sized so that
    partition merges complete well inside a scenario's drain budget.
    Shared by the workload harness and the multi-ring cluster. *)

val pad : string -> int -> string
(** [pad tag bytes]: a workload value of [max bytes (length tag)] bytes
    that starts with the unique [tag], padded with dots. *)

type cluster = {
  sim : Netsim.t;  (** Not yet run. *)
  members : Aring_ring.Member.t array;
      (** By participant id [ring * n + node], as are the next two. *)
  daemons : Aring_daemon.Daemon.t array;
  kvs : Kv.t array;
  oracles : Oracle.t array;  (** One per ring, attached to its replicas. *)
}

val build_cluster :
  ?tiers:Profile.tier array ->
  ?controller:(pid:int -> Aring_control.Controller.t option) ->
  ?wrap:(pid:int -> Aring_ring.Participant.t -> Aring_ring.Participant.t) ->
  ?kv_bug:(ring:int -> node:int -> Kv.bug option) ->
  rings:int ->
  n:int ->
  net:Profile.net ->
  tier:Profile.tier ->
  params:Aring_ring.Params.t ->
  seed:int64 ->
  unit ->
  cluster
(** [rings] rings of [n] physical nodes on one Netsim: a Member, Daemon
    and Kv replica at participant [ring * n + node], each ring its own
    multicast domain when [rings > 1]. {!Aring_load.Load.run} builds
    with it at one ring, {!Aring_multiring.Cluster.create} at any count.
    [tiers] gives per-physical-node cost profiles (length [n];
    [tier] is the uniform default), [controller] each participant's
    adaptive controller, [wrap] wraps each participant (fault injection)
    and [kv_bug] seeds a replica bug (fuzzer self-test).

    The order is fixed, as it fixes every seeded stream: all members,
    all daemons, all replicas, then the oracles attach; a caller's
    replica observers run after the oracle's.

    @raise Invalid_argument if [tiers] does not have length [n]. *)

val install_partition : Netsim.t -> int -> partition -> unit
(** Drop every packet across the island boundary inside the window,
    for a cluster of [n] physical nodes: participant [pid] is node
    [pid mod n], so on a multi-ring deployment the island is cut away
    in every ring. Replaces the sim's drop predicate. The island must
    lie in [[0, n)] ({!Aring_load.Load.validate} checks it). *)

val kv_converged : Kv.t array -> bool
(** Every replica settled, synced and at equal (applied, digest); true
    for no replicas. *)

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
