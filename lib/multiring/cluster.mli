(** An M-ring sharded deployment on one deterministic simulator.

    Every physical node participates in all [rings] rings — as sim
    participant [ring * nodes + node] — each ring an isolated multicast
    domain running its own membership, daemon and {!Aring_app.Kv}
    replica. The KV keyspace is sharded across rings by FNV key hash
    ({!shard_of_key}); client operations route to the owning ring.

    Each physical node is a {e learner} of every ring: its per-ring
    replica observations ([Applied] / [Skipped]) feed one deterministic
    round-robin {!Merge}, producing the node's merged total order. A
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

(** One element of a node's merged total order. *)
type merged_item = {
  mi_ring : int;  (** Ring that ordered the op. *)
  mi_index : int;  (** The op's index in its ring's op log. *)
  mi_op : Op.t;
  mi_value : string option;  (** Store value after apply (ground truth). *)
  mi_applied_at : int;
      (** Sim time the op applied on its ring at this node — merged
          emergence minus this is the merge-added wait. *)
}

val create :
  ?params:Params.t ->
  ?net:Profile.net ->
  ?tier:Profile.tier ->
  ?tiers:Profile.tier array ->
  ?seed:int64 ->
  ?skip_every_ns:int ->
  ?skip_credits:int ->
  ?mcas_retry_ns:int ->
  ?controller:(pid:int -> Aring_control.Controller.t option) ->
  ?wrap:(pid:int -> Participant.t -> Participant.t) ->
  ?kv_bug:(ring:int -> node:int -> Kv.bug option) ->
  rings:int ->
  nodes:int ->
  unit ->
  t
(** Build [rings] rings of [nodes] physical nodes each on one shared
    {!Netsim}. [tiers] gives per-{e physical-node} cost profiles
    (length [nodes], replicated across rings); [tier] is the uniform
    default. [skip_every_ns] (default 250 µs) is the per-(node, ring)
    idle window after which a skip of [skip_credits] (default 32) merge
    turns is multicast (only with [rings > 1]: one ring runs no skip
    generator) — but only by the lowest-pid alive node, and only
    while its own merge holds no pending items and fewer than
    [skip_credits] unspent units for that ring, so a long idle period
    cannot pile up credits that would strand the ring's next item
    behind thousands of ceded turns; [mcas_retry_ns] (default 8 ms)
    paces the submitter's mcas retry loop. [controller] is called once per sim
    participant (global pid) to give each member its own adaptive
    controller; [wrap] wraps each participant before the sim is built
    (fault injection); [kv_bug] seeds a replica bug (fuzzer self-test).
    [tiers], [controller], [wrap] and [kv_bug] pass through to
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
val del : t -> node:int -> key:string -> unit

val cas :
  t -> node:int -> key:string -> expect:string option -> value:string -> unit

val read : t -> node:int -> key:string -> string option * int

val mcas :
  t ->
  node:int ->
  id:string ->
  checks:(string * string option) list ->
  writes:(string * string) list ->
  unit
(** Cross-shard multi-key cas: split [checks]/[writes] into per-ring
    parts by shard, submit one identical copy on every involved ring
    from [node], and retry every [mcas_retry_ns] until the submitting
    node sees a decision on all involved rings (retried copies dedup on
    [id]). Commits iff every check holds at delivery on its ring. *)

val mcas_decided_at : t -> node:int -> string -> bool
(** All involved rings' replicas at [node] have recorded a decision. *)

val mcas_submitted : t -> int
val mcas_retries : t -> int

val mcas_ids : t -> (string * int * int list) list
(** Every registered mcas as [(id, submitting node, involved rings)]. *)

val decisions_for : t -> string -> (int * int * bool) list
(** Decision observations for [id] as [(node, ring, commit)], in
    observation order — the cross-shard atomicity oracle's feed: all
    commit bits for one [id] must agree. *)

(** {1 Merged order} *)

val on_merged : t -> (node:int -> ring:int -> merged_item -> unit) -> unit
(** Called for every element of each node's merged stream, in merged
    order; callbacks run in registration order. *)

val merged_count : t -> node:int -> int
val merge_blocked : t -> node:int -> ring:int -> int
(** Items of [ring] delivered at [node] but not yet emitted by the
    merge. *)

(** {1 Faults and convergence} *)

val crash : t -> node:int -> unit
(** Crash the physical node: its participant in {e every} ring. *)

val kv_converged : t -> bool
(** {!Aring_app.Kv_scenario.kv_converged} over every ring's surviving
    replicas, with no undecided parked mcas while the survivors can form
    a primary component. *)

val merge_settled : t -> bool
(** No delivered item is stuck behind any survivor's merge. Stream
    {e lengths} are not compared: a replica that caught up via snapshot
    transfer merges fewer items than peers that saw every delivery, so
    equal lengths only hold fault-free. *)

val check_convergence : t -> unit
(** Run each ring's oracle end-of-run convergence check over the
    surviving replicas. *)

val oracle_violations : t -> int

val record_metrics : t -> Aring_obs.Metrics.t -> unit
(** Node-0 replica counters per ring (under ["ring<r>."] prefixes) plus
    the shared network counters. *)
