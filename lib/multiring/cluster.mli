(** An M-ring sharded deployment on one deterministic simulator.

    Every physical node participates in all [rings] rings — as sim
    participant [ring * nodes + node] — each ring an isolated multicast
    domain running its own membership, daemon and {!Aring_app.Kv}
    replica. The KV keyspace is sharded across rings by FNV key hash
    ({!shard_of_key}); client operations route to the owning ring.

    Each physical node is a {e learner} of every ring: its per-ring
    replicas' op-log positions ([Applied] items, and the positions
    [Skipped] and [Installed] name) feed one deterministic {!Merge},
    producing the node's merged total order. A
    per-node coordinator resolves cross-shard {!mcas} ops from its own
    node's replicas' votes (votes never cross the network) and retries
    lost copies deterministically.

    The Member+Daemon+Kv+Oracle stack is built by
    {!Aring_app.Kv_scenario.build_cluster}; this module adds only what
    sharding needs: the merge, the skip generators and the mcas
    coordinator. With [rings = 1] the cluster is the classic single-ring
    deployment: no multicast domain, the merge is the identity and no
    skip generator runs (a skip there would only be traffic). *)

open Aring_ring
open Aring_sim
module Kv = Aring_app.Kv
module Op = Aring_app.Op
module Oracle = Aring_app.Oracle

type t

val create :
  ?params:Params.t ->
  ?net:Profile.net ->
  ?tiers:Profile.tier array ->
  ?seed:int64 ->
  ?wrap:(pid:int -> Participant.t -> Participant.t) ->
  ?kv_bug:(ring:int -> node:int -> Kv.bug option) ->
  ?no_seek:bool ->
  rings:int ->
  nodes:int ->
  unit ->
  t
(** Build [rings] rings of [nodes] physical nodes each on one shared
    {!Netsim}. [tiers] gives per-{e physical-node} cost profiles
    (length [nodes], replicated across rings; default {!Profile.daemon}
    everywhere); [params] defaults to {!Params.snappy}. After 250 µs
    without an observation on a (node, ring), the ring's designated
    member — the lowest member of its installed
    view, if that view is a primary component — multicasts a skip
    naming the highest position any ring has reached in its own merge,
    if the ring is behind it and the member's replica is settled and not
    parked (only with [rings > 1]: one ring runs no skip generator).
    Every install seeks
    the learner's merge to the installed position. Each node runs one
    termination loop per {!mcas} it has seen (see there).
    [wrap] wraps each participant before the sim is
    built (fault injection); [kv_bug]
    seeds a replica bug and [no_seek] (default false) a learner bug
    — installs leave the merge where it was (fuzzer self-test).
    [tiers], [wrap] and [kv_bug] pass through to
    {!Aring_app.Kv_scenario.build_cluster}; this module's replica
    observer registers after the oracles.

    @raise Invalid_argument if [rings < 1] or [nodes < 2]. *)

(** {1 Topology} *)

val rings : t -> int
val nodes : t -> int
val sim : t -> Netsim.t

val pid : t -> ring:int -> node:int -> int
(** Global sim participant id: [ring * nodes + node]. *)

val kv : t -> ring:int -> node:int -> Kv.t
val member : t -> ring:int -> node:int -> Member.t
val daemon : t -> ring:int -> node:int -> Aring_daemon.Daemon.t
val oracle : t -> ring:int -> Oracle.t

val alive : t -> node:int -> bool
(** False once {!crash}ed. *)

val shard_of_key : t -> string -> int
(** The ring that orders writes to this key. *)

(** {1 Client operations} (routed to the owning ring at [node]) *)

val put : t -> node:int -> key:string -> value:string -> unit

val mcas :
  t ->
  node:int ->
  id:string ->
  checks:(string * string option) list ->
  writes:(string * string) list ->
  unit
(** Cross-shard multi-key cas: split [checks]/[writes] into per-ring
    parts by shard and submit one identical copy on every involved ring
    from [node]. Every node that sees the op — its submitter, any node
    whose replica votes on it, any node whose install restores it
    parked — runs one termination loop for it: 8 ms after the node
    first sees it, then at doubling intervals up to 64 ms, while the
    node has not seen a decision on all involved rings, it resubmits
    the copies and multicasts the outcome once its replicas' votes fix
    it (retried copies dedup on [id]; a retry or decide skips a ring
    whose replica at the node is holding ops back). Commits iff every
    check holds at delivery on its ring. *)

val mcas_decided_at : t -> node:int -> string -> bool
(** All involved rings' replicas at [node] have recorded a decision. *)

val mcas_submitted : t -> int

val mcas_retries : t -> int
(** Termination-loop ticks, over every node, that found an op still
    undecided at their node. *)

val mcas_ids : t -> string list
(** The id of every mcas some node has seen. *)

val decisions_for : t -> string -> (int * int * bool) list
(** Decision observations for [id] as [(node, ring, commit)], in
    observation order — the cross-shard atomicity oracle's feed: all
    commit bits for one [id] must agree. *)

(** {1 Merged order} *)

val on_merged :
  t ->
  (node:int -> ring:int -> index:int -> op:Op.t -> applied_at:int -> unit) ->
  unit
(** Called for every element of each node's merged stream, in merged
    order; callbacks run in registration order. [ring] ordered the op,
    at [index] of its op log; [applied_at] is the sim time the op
    applied on its ring at this node, so merged emergence minus it is
    the merge-added wait. *)

val merge : t -> node:int -> Kv.observation Merge.t
(** Node [node]'s learner merge, for inspection: its per-ring positions,
    turn and pending items. It holds the [Kv.Applied] records the
    node's replicas reported, each stamped with its apply time: the
    merge builds no item of its own. *)

(** {1 Faults and convergence} *)

val crash : t -> node:int -> unit
(** Crash the physical node: its participant in {e every} ring. *)

val kv_converged : t -> bool
(** {!Aring_app.Kv_scenario.kv_converged} over every ring's surviving
    replicas, with no undecided parked mcas while the survivors can form
    a primary component. *)

val merge_settled : t -> bool
(** No delivered item is stuck behind any survivor's merge, or the
    survivors cannot form a primary component (the rule {!kv_converged}
    applies to parks): a minority rejects the skips a silent ring needs,
    so its merge correctly freezes. Stream {e lengths} are not compared:
    a learner whose replica caught up by snapshot transfer seeks past
    the items it never saw. *)

val check_convergence : t -> unit
(** Run each ring's oracle end-of-run convergence check over the
    surviving replicas. *)

val oracle_violations : t -> int

val record_metrics : t -> Aring_obs.Metrics.t -> unit
(** Node-0 replica counters per ring (under ["ring<r>."] prefixes) plus
    the shared network counters. *)
