(** The fuzzing campaign: generate → run → (on failure) shrink.

    Trial seeds are drawn sequentially from one master PRNG seeded with
    the campaign seed, so a campaign is replayable end-to-end: equal
    campaign seeds explore exactly the same schedules in the same order,
    and every log line is byte-identical across replays (no wall-clock
    content). Wall-clock control enters only through the [stop] callback,
    which is consulted {e between} trials — it can cut a campaign short
    but cannot perturb any trial that does run. *)

type config = {
  trials : int;  (** Maximum schedules to try. *)
  seed : int64;  (** Campaign master seed. *)
  max_nodes : int;
      (** Cluster-size cap handed to {!Schedule.generate}. The default
          (8) preserves the historical seed→schedule mapping; the CI also
          runs a 32-node pass to stress recovery at scale. *)
  rings : int;
      (** Ordering rings per generated schedule (default 1); more than
          one needs [app = Kv] and adds cross-shard mcas and ring-scoped
          faults (see {!Runner.run}). *)
  bug : Bug.t;  (** Injected defect ({!Bug.Clean} for real fuzzing). *)
  app : Schedule.app;
      (** The app every generated schedule names: {!Schedule.Kv} fuzzes
          the full daemon + replicated-KV stack with its oracle. *)
  shrink : bool;  (** Minimize the first failure. *)
  max_shrink_runs : int;
  stop : unit -> bool;
      (** Polled before each trial; [true] ends the campaign (time
          budgets live in the caller, keeping this library clock-free). *)
  log : string -> unit;  (** One line per noteworthy event. *)
}

val default_config : config
(** 200 trials, seed 1, max 8 nodes, 1 ring, clean, bare, shrink on
    (budget 200), never stops early, silent log. *)

type trial = { index : int; schedule : Schedule.t; outcome : Runner.outcome }

type report = {
  trials_run : int;
  failure : trial option;  (** First failing trial, if any. *)
  shrunk : Shrink.result option;  (** Present iff a failure was shrunk. *)
}

val run_campaign : config -> report
(** Run schedules until one fails, [trials] pass, or [stop ()]. A
    schedule replays with {!Runner.run} alone.
    @raise Invalid_argument as {!Schedule.generate} and {!Runner.run}
    do. *)
