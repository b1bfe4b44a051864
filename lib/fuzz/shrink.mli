(** Minimize a failing schedule to a small reproducer.

    Greedy delta-debugging over the three structural axes, in order of
    how much each simplifies the reproducer:

    + {b drop faults} — repeatedly try removing each fault event, keeping
      a removal whenever the reduced schedule still fails the same way;
    + {b shorten the run} — binary-reduce the horizon (dropping faults
      pushed outside it and clamping windows to it);
    + {b reduce the cluster} — remove the highest-numbered node, remapping
      faults (crashes of the node vanish; it leaves partition islands).

    A candidate counts as the same failure when its {!Runner.failure_label}
    matches the original's — a shrink is allowed to change the detail of a
    violation but not to morph a safety failure into a liveness one.
    Re-execution happens with the same injected bug as the original run,
    so the whole process is deterministic. *)

type result = {
  schedule : Schedule.t;  (** The minimized schedule; still fails. *)
  outcome : Runner.outcome;  (** Its outcome (same failure label). *)
  runs : int;  (** Candidate executions spent. *)
}

val shrink :
  ?bug:Bug.t -> ?max_runs:int -> Schedule.t -> Runner.outcome -> result
(** [shrink sched outcome] minimizes [sched], whose run produced the
    failing [outcome]. [max_runs] (default 200) bounds candidate
    executions; the best schedule found within the budget is returned.
    If [outcome] did not fail, [sched] is returned unchanged. [bug] must
    match the original run so candidates reproduce the same behavior;
    every candidate keeps [sched]'s app and ring count. *)
