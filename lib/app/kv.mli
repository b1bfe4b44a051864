(** A deterministic replicated key-value store on the Accelerated Ring.

    One {!t} is a KV {e replica}: a daemon client session that multicasts
    writes ([Put]/[Del]/[Cas]) with Agreed delivery and applies the
    resulting totally-ordered op log to a local store. Reads are served
    locally and return a consistency token (the replica's applied-prefix
    length); {!sync_read} instead rides a Safe-delivered marker through
    the ring, so the answer reflects every write stably ordered before
    the marker.

    {2 Primary component}

    Replicas are created with the cluster size and apply client writes
    only while their current configuration holds a strict majority of the
    cluster ([2*|members| > cluster_size]). Writes delivered in a
    non-primary (minority) configuration are rejected by every member of
    that configuration — the same deterministic decision everywhere, so
    components never diverge on which ops executed. Minority replicas
    keep serving (stale) local reads from their frozen store.

    {2 View-synchronous state transfer}

    After every regular configuration, each replica multicasts an
    Agreed {!Op.Hello} announcing its [(applied, digest, synced)] state.
    Once Hellos from {e all} view members have been delivered — the same
    point of the total order at every replica — each replica runs the
    same deterministic election: the donor is the synced member with the
    highest applied count (ties broken by lowest pid). Members whose
    announced state differs from the donor's become receivers; the donor
    snapshots its store at that instant and streams it as chunked
    ordinary multicasts. Every replica holds back the ops delivered
    between a regular view and that view's election, so the snapshot
    and the held-back ops start at the same position: a receiver keeps
    buffering, installs the snapshot when the last chunk arrives, then
    replays the buffer — ending byte-identical to the donor — and any
    other replica applies them at the election. A new regular
    configuration delivered mid-transfer aborts and restarts the round,
    which covers donor crash, receiver crash and partitions healing
    mid-transfer. If no synced member exists, every member deterministically
    cold-resets to the empty store.

    One replica per daemon; all replicas join one group.

    Every op a replica multicasts is written once, by {!Op.write},
    straight into the daemon's submission frame
    ({!Aring_daemon.Daemon.multicast_write}): no encoded op is built
    first.

    {2 Own writes}

    A replica applies the writes it submitted ({!put}, {!del}, {!cas})
    from the ops it built, not from a decoded copy. Each such op waits
    in a per-replica FIFO until a delivery from the replica's own
    session carries a write: the replica drops ops from the front until
    one equals the delivered bytes ({!Op.matches}, in place) and applies
    that one, or decodes if none does. A write a view change lost is
    dropped by the next own delivery, and a stale or reordered FIFO
    costs only a decode: the byte comparison means the applied op is
    always the delivered one. This rests on delivered payloads being
    immutable, which {!Aring_daemon.Daemon.callbacks} states: the
    store then keeps the client's own key and value strings. *)

open Aring_wire

type t

(** Everything a replica observably does, reported to observers in
    execution order — the feed the consistency {!Oracle} checks. *)
type observation =
  | Applied of { index : int; op : Op.t; value : string option }
      (** Write [index] of the op log executed; [value] is the store's
          value for the written key {e after} the apply ([None] =
          absent), i.e. ground truth for an oracle's shadow
          comparison. *)
  | Read of { key : string; value : string option; token : int; sync : bool }
  | Installed of {
      donor : Types.pid;
      applied : int;
      entries : (string * string) list;
    }  (** A snapshot replaced this replica's store. *)
  | Aborted  (** An in-flight incoming transfer was discarded. *)
  | Reset  (** Cold restart: no synced member existed at an election. *)
  | Voted of {
      id : string;
      vote : bool;
      parts : Op.mcas_part list;
    }
      (** An {!Op.Mcas} copy was delivered and this replica evaluated
          its ring's checks. On a true vote the op parks (later writes
          queue behind it) until an {!Op.Mdecide} is delivered; a false
          vote — failed checks, or a wait-die wound — already fixes the
          global outcome, so nothing parks. [parts] is the full op
          (its involved rings included), so any observer can resubmit
          copies a crashed submitter never sent (cooperative
          termination). *)
  | Decided of { id : string; commit : bool }
      (** An {!Op.Mdecide} resolved this mcas at its delivery position;
          on a parked commit the writes were applied (each reported as an
          ordinary [Applied] with a [Put] op) and queued writes then
          drained. *)
  | Skipped of { upto : int }
      (** An {!Op.Skip} moved the op-log position up to [upto]: the
          positions it passed hold no op. A skip that finds the replica
          already there is not reported. *)

(** Per-mcas-id state retained for dedup of retried copies and for
    coordinator resolution (see [Aring_multiring.Cluster]). *)
type mcas_status = Mcas_voted of bool | Mcas_decided of bool

type stats = {
  mutable ops_applied : int;
  mutable cas_failures : int;  (** Cas delivered whose expectation failed. *)
  mutable rejected_writes : int;  (** Writes delivered in a minority view. *)
  mutable reads : int;
  mutable sync_reads : int;
  mutable hellos_sent : int;
  mutable snapshots_sent : int;
  mutable installs : int;
  mutable xfer_aborts : int;
  mutable cold_resets : int;
  mutable buffered_peak : int;  (** Max ops buffered during one transfer. *)
  mutable decode_errors : int;
  mutable mcas_votes : int;
  mutable mcas_commits : int;
  mutable mcas_aborts : int;
  mutable mcas_dups : int;  (** Retried Mcas/Mdecide copies deduplicated. *)
  mutable skips : int;
}

(** Fault injection for the fuzzer's seeded-bug self-test. *)
type bug =
  | Bug_none
  | Bug_skip_apply of { every : int }
      (** Every [every]-th write at this replica mutates nothing (the
          log position is still consumed) — a classic skipped-apply /
          stale-state bug an end-to-end oracle must catch. *)
  | Bug_apply_before_election
      (** The replica applies the ops delivered before its view's
          election at once, on whatever state it held: a receiver then
          applies ops at positions its peers filled differently, which
          {!Oracle}'s one-op-per-position check must catch. *)

val group : string
(** The group every replica joins (["kv"]). *)

val create :
  ?bug:bug ->
  ?ring:int ->
  cluster_size:int ->
  daemon:Aring_daemon.Daemon.t ->
  unit ->
  t
(** Attach a replica to [daemon]: connects a client session, joins
    {!group}, and installs the daemon's view hook (so creating a second
    replica on one daemon is not supported). [cluster_size] is the full
    ring size, used for the primary-component majority test. The
    session is named ["kv"], and one snapshot chunk encodes to at most
    4,096 bytes. [ring] (default 0) names which ring of a multi-ring
    deployment this replica orders on — it selects the replica's
    {!Op.mcas_part} of a cross-shard cas. *)

val node : t -> Types.pid
(** The hosting daemon's pid — the replica's identity in observations,
    flight records and elections. *)

(** {1 Client operations} *)

val put : t -> key:string -> value:string -> unit
(** Multicast a [Put], and keep the op until its own delivery applies
    it (see "Own writes" above): the store keeps [key] and [value] as
    they are, so a caller that built them with [Bytes.unsafe_to_string]
    must not write to those bytes again. *)

val del : t -> key:string -> unit

val cas : t -> key:string -> expect:string option -> value:string -> unit
(** Applies iff the value at delivery time equals [expect]; failed CAS
    still consumes its op-log position. *)

val read : t -> key:string -> string option * int
(** Local read: [(value, token)] where [token] is the replica's applied
    op count — compare tokens to order reads across replicas. *)

val sync_read : t -> key:string -> on_result:(string option -> token:int -> unit) -> unit
(** Safe-ordered read: multicasts a marker with Safe delivery and serves
    the read when the marker comes back, i.e. after every write stably
    ordered before it. [on_result] fires at most once. *)

(** {1 Cross-shard multi-key cas}

    An {!Op.Mcas} carries per-ring parts; an identical copy is submitted
    on every involved ring ({!submit_mcas} sends this ring's copy). At
    delivery, each replica evaluates its own part's checks — the same
    deterministic vote at every replica of the ring. A true vote
    {e parks} the op: every later write queues behind it, so the apply
    sequence stays identical ring-wide. A false vote fixes the global
    outcome (abort), so nothing parks. Wait-die breaks cross-ring park
    cycles: a fresh Mcas delivered while an {e older} one (by id order)
    is parked votes a forced abort instead of queueing, so parks only
    ever wait for younger parks and two rings can never park two
    cross-shard ops in opposite orders, each blocking the vote the other
    needs.

    A per-node coordinator (one per physical node, reading the node's
    own replicas — votes never cross the network) computes
    [commit = AND of all involved rings' votes] and multicasts the
    outcome on every involved ring ({!submit_decide}); the park resolves
    when the {!Op.Mdecide} is {e delivered}, i.e. at one deterministic
    position of the ring's op stream — commit applies the part's writes,
    abort applies nothing. Undecided parks survive view changes: the
    hello digest covers park and vote state, and a donor streams both
    ahead of its snapshot ({!Op.Mcas_table}), so receivers reconstruct
    the park instead of dropping it. *)

val submit_mcas : t -> id:string -> parts:Op.mcas_part list -> unit
(** Multicast this ring's copy of the cas. [id] must be globally unique;
    retried copies dedup on it. *)

val skip : t -> upto:int -> unit
(** Multicast an {!Op.Skip} naming position [upto] on this ring. *)

val submit_decide : t -> id:string -> commit:bool -> unit
(** Multicast the coordinator's outcome for mcas [id] on this ring
    ({!Op.Mdecide}). At delivery, a matching park resolves; anywhere
    else (already resolved, voted false, superseded by a snapshot
    install, or never delivered) only the decision is recorded for
    dedup — writes are never applied out of delivery order. *)

val mcas_status : t -> string -> mcas_status option
val mcas_parked : t -> bool

val parked_op : t -> Op.t option
(** The undecided parked {!Op.Mcas} head, if any — snapshot installs
    restore it, so a replica that never saw the copy delivered still
    holds the full op and any observer can drive termination from it. *)

(** {1 Introspection} *)

val applied : t -> int
(** The replica's op-log position: ops applied plus positions skips
    passed. With no skips (one ring) it is the applied op count. *)

val synced : t -> bool

val in_transfer : t -> bool
(** True while an incoming snapshot transfer is active. *)

val settled : t -> bool
(** No incoming transfer active and no pending election with this
    replica as a receiver candidate — the quiescence test fuzz
    convergence uses alongside digest equality. *)

val store_size : t -> int
val digest : t -> int64
(** Order-independent FNV-1a digest of the store contents. *)

val entries : t -> (string * string) list
(** Store contents sorted by key. *)

val holds : t -> key:string -> string -> bool
(** [holds t ~key v]: the store binds [key] to [v]. Reads the store
    only: no read is counted or observed, and nothing is allocated. *)

val pending_sync_reads : t -> int
val stats : t -> stats

val add_observer : t -> (observation -> unit) -> unit
(** Observers run in registration order at each observation. *)

val preload : t -> (string * string) list -> unit
(** Bench/test helper: install store contents directly, before the
    simulation starts (call it identically at every replica — the ring
    is bypassed). Reported to observers as a self-installed snapshot at
    applied 0 so oracle shadows stay consistent. Raises
    [Invalid_argument] once the replica has run. *)

val record_metrics : ?prefix:string -> t -> Aring_obs.Metrics.t -> unit
(** Export replica counters and gauges under ["app.*"] names, optionally
    prefixed (e.g. ["ring1."] for per-ring registries). *)
