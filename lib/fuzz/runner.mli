(** Execute one fault schedule on the simulator and judge it.

    The schedule names its stack ({!Schedule.app}). A bare schedule
    (one ring) builds raw membership-capable members
    ({!Aring_ring.Member}), submits padded payloads to them until the
    horizon, then submits per-node convergence probes and drains. A KV
    schedule, at any ring count, goes through {!Aring_multiring.Cluster}
    (built by {!Aring_app.Kv_scenario.build_cluster}), with one KV
    judge; its ops come from the one open-loop client,
    {!Aring_load.Load.start}, in a spec derived from the schedule (one
    periodic session per node at the schedule's submission gap, 64
    uniform keys, the Safe fraction as sync reads). Both attach the
    trace-driven EVS invariant checker as a live sink and inject the
    schedule's faults. Two oracles:

    - {b Safety}: any {!Aring_obs.Checker} violation (total order, delivery
      gaps, aru/safe-line regressions, duplicate token holders) fails the
      run immediately at the next chunk boundary.
    - {b Liveness}, in two EVS-compatible stages. After all fault windows
      close (the generator keeps them inside the horizon; crashes are
      permanent), every surviving node must first install one common
      regular configuration containing exactly the survivors — partitioned
      rings must re-merge. Only then are the probes submitted: EVS allows
      a message sequenced in a pre-merge configuration to be delivered
      only within it, so probing earlier would flag correct behavior.
      Once probed, every survivor must deliver every survivor's probe
      within the remaining drain budget.

    No run passes before its horizon, whatever its stack: the workload
    and the fault windows last until then, so agreement earlier proves
    nothing about the faults still to come.

    Everything — including the early-exit points — is a deterministic
    function of the schedule, so [run] is referentially transparent:
    {!outcome.trace_hash} is byte-stable across replays of equal
    schedules. *)

type failure =
  | Invariant of Aring_obs.Checker.verdict
      (** Safety violation; the verdict carries the recorded violations. *)
  | No_merge of { states : (int * string) list }
      (** Liveness stage 1: the survivors never installed a common
          all-survivor regular view within the drain budget; [states] is
          each survivor's membership state name at the deadline. *)
  | No_convergence of { missing : (int * string) list }
      (** Liveness stage 2: (node, probe) pairs never delivered within
          the drain budget, sorted. *)
  | Kv_violation of { total : int; messages : string list }
      (** The KV consistency oracle recorded violations (stale state or
          reads, op-log gaps, divergence); [messages] is a prefix. *)
  | Kv_unsettled of { nodes : (int * string) list }
      (** Every ring re-formed, but the KV replicas never reached a
          common settled (applied, digest) state, or a merge kept items
          blocked, within the drain budget; [nodes] holds one state line
          per surviving (ring, node), keyed by pid. *)
  | Mcas_divergence of { id : string; decisions : (int * int * bool) list }
      (** Multi-ring only: one cross-shard mcas was decided commit on
          some (node, ring) observation and abort on another —
          cross-shard atomicity broken. *)
  | Health_stall of { report : Aring_obs.Health.report }
      (** The health watchdog (fourth judge) flagged a formation
          livelock or delivery stall before the drain deadline; the
          report carries per-node phase-cycle statistics and recent
          phase trails. The flight recorder still holds the run's tail
          at return — dump it for the post-mortem. *)
  | Run_exception of string
      (** The protocol or simulator raised; the string is the exception. *)

type outcome = {
  schedule : Schedule.t;
  failure : failure option;
  verdict : Aring_obs.Checker.verdict;
  deliveries : int;  (** Application deliveries across all nodes. *)
  views : int;  (** Configuration installations across all nodes. *)
  trace_hash : int64;
      (** FNV-1a over the twelve integers of every {!Aring_obs.Flight}
          record of the run, in record order. *)
  end_ns : int;  (** Simulated time at which the run stopped. *)
  health : Aring_obs.Health.report;
      (** End-of-run watchdog report, present on passing runs too: use it
          to assert convergence {e quality} (peak formation attempts,
          recovery-flood dedup savings), not just convergence. *)
}

val run : ?bug:Bug.t -> Schedule.t -> outcome
(** Execute the schedule on the stack it names. [bug] (default
    {!Bug.Clean}) is a seeded defect, used to prove the fuzzer catches
    it. To see the run's records, subscribe a sink around the call
    ({!Aring_obs.Trace.with_sink}).

    A KV schedule runs on an {!Aring_multiring.Cluster}: every member
    hosts a daemon plus a replicated-KV replica ({!Aring_app.Kv}) on
    every ring under a skewed put/del/cas/read mix (sync reads at the
    safe-permille; cross-shard mcas above one ring), and the per-ring
    consistency oracle ({!Aring_app.Oracle}) is a third judge.
    Convergence is judged per ring on replica equality, merge
    quiescence and cross-shard decision agreement; no probes are sent,
    as raw payloads do not survive post-horizon membership churn.
    @raise Invalid_argument if [bug] needs KV ({!Bug.needs_kv}) and the
    schedule is bare. *)

val passed : outcome -> bool

val failure_label : failure -> string
(** ["invariant"], ["no_merge"], ["no_convergence"], ["kv_violation"],
    ["kv_unsettled"], ["mcas_divergence"], ["health_stall"] or
    ["exception"]. *)

val pp_outcome : Format.formatter -> outcome -> unit
