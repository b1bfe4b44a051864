(** Execute one fault schedule on the simulator and judge it.

    Two stacks run schedules. The bare ring ([App_none], one ring) builds
    raw membership-capable members ({!Aring_ring.Member}), drives a
    padded workload until the horizon, then submits per-node convergence
    probes and drains. Every other run — every KV run at any ring count,
    and every multi-ring run — goes through {!Aring_multiring.Cluster}
    (built by {!Aring_app.Kv_scenario.build_cluster}), with one KV judge.
    Both attach the trace-driven EVS invariant checker as a live sink and
    inject the schedule's faults. Two oracles:

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

type app =
  | App_none  (** Raw ring members with a padded byte workload. *)
  | App_kv
      (** Every member hosts a daemon plus a replicated-KV replica
          ({!Aring_app.Kv}) on an {!Aring_multiring.Cluster}, at every
          ring count; the workload becomes a skewed put/del/cas/read mix
          (the schedule's safe-permille drives sync reads; cross-shard
          mcas joins it only with more than one ring), and the per-ring
          end-to-end consistency oracle ({!Aring_app.Oracle}) becomes a
          third judge alongside the trace checker and liveness. *)

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
      (** The health watchdog (fourth judge, liveness schedules only)
          flagged a formation livelock or delivery stall before the
          drain deadline; the report carries per-node phase-cycle
          statistics and recent phase trails. The flight recorder still
          holds the run's tail at return — dump it for the post-mortem. *)
  | Run_exception of string
      (** The protocol or simulator raised; the string is the exception. *)

type outcome = {
  schedule : Schedule.t;
  failure : failure option;
  verdict : Aring_obs.Checker.verdict;
  deliveries : int;  (** Application deliveries across all nodes. *)
  views : int;  (** Configuration installations across all nodes. *)
  trace_hash : int64;
      (** FNV-1a over the JSONL rendering of the full trace stream. *)
  end_ns : int;  (** Simulated time at which the run stopped. *)
  health : Aring_obs.Health.report;
      (** End-of-run watchdog report, present on passing runs too: use it
          to assert convergence {e quality} (peak formation attempts,
          recovery-flood dedup savings), not just convergence. *)
}

val run :
  ?bug:Bug.t ->
  ?adaptive:bool ->
  ?app:app ->
  ?extra_sink:Aring_obs.Trace.sink ->
  Schedule.t ->
  outcome
(** Execute the schedule. [bug] (default {!Bug.Clean}) wraps every
    participant before the cluster is built — used to prove the fuzzer
    catches seeded protocol defects ({!Bug.Kv_skip_apply} instead plants
    inside the replica and needs [app = App_kv]; {!Bug.Recovery_flood}
    instead builds every member with the pre-overhaul recovery
    exchange, and only the bare ring has that flag). With [adaptive]
    (default [false]), every member runs the AIMD accelerated-window
    controller ({!Aring_control.Controller}), exercising the ordering and
    membership invariants while the per-node window moves; [app]
    (default {!App_none}) selects the hosted application. Runs stay
    deterministic per schedule for any fixed mode combination; the trace
    hash differs between modes (the controller changes send timing, the
    kv app adds its own traffic and trace events).

    A KV run, or any schedule with [config.rings > 1], runs on an
    {!Aring_multiring.Cluster}: every physical node joins all rings,
    and convergence is judged per ring on replica equality, merge
    quiescence and cross-shard decision agreement, with one
    [Kv_unsettled] line format for every ring count. Probes are never
    sent there: raw payloads do not survive post-horizon membership
    churn. At one ring the cluster runs no skip generator and offers no
    mcas, so a single-ring KV run's trace is the one the stack has
    always produced.

    @raise Invalid_argument if [bug] is {!Bug.Recovery_flood} and the
    run is not the bare single ring ([app = App_none], one ring). *)

val passed : outcome -> bool

val app_label : app -> string
val app_of_string : string -> (app, string) result
(** ["none"] or ["kv"]. *)

val failure_label : failure -> string
(** ["invariant"], ["no_merge"], ["no_convergence"], ["kv_violation"],
    ["kv_unsettled"], ["mcas_divergence"], ["health_stall"] or
    ["exception"]. *)

val pp_outcome : Format.formatter -> outcome -> unit
