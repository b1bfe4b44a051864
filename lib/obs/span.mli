(** End-to-end latency spans. Messages are stamped at submission with
    the virtual clock ({!Flight.now}); stage transitions (submit →
    packed → token-ordered → delivered → applied) land in per-stage
    mergeable {!Metrics} histograms, decomposing where end-to-end
    latency goes. The feed is {!Flight}: an active collector subscribes
    to it and decodes the data-send, deliver and apply records; only the
    daemon's pack step calls {!note_packed} directly. Opt-in and
    scoped: {!with_span} activates a collector for one call, collectors
    nest (each sees every record of its window), and when none is
    active nothing is subscribed and the remaining hooks are a single
    ref read. Spans record nothing; the one record field they touch is a
    new message's {!Flight.ev_data_send} stamp, 0 unless a collector is
    active (the fuzz runner activates none, so its hashed stream never
    holds one). *)

type t

val create : ?metrics:Metrics.t -> unit -> t
(** Histograms are registered in [metrics] (default: a fresh registry)
    under the [span.*] names below. *)

val metrics : t -> Metrics.t

(** {2 Active collectors} *)

val with_span : t -> (unit -> 'a) -> 'a
(** [with_span t f] runs [f] with [t] subscribed to {!Flight} and
    active for {!submit_stamp} and {!note_packed}, and on exit (normal
    or by an exception) restores the collectors that were active before.
    An enclosing collector keeps counting inside the window: every
    active collector sees each record. *)

(** {2 Hooks outside the Flight feed} (self-guarded) *)

val submit_stamp : unit -> int
(** Submission timestamp to carry alongside the message (the engine
    puts it in a new message's {!Flight.ev_data_send} record); [0] when
    no collector is active, and a zero stamp is never measured. *)

val note_packed : submit_ns:int -> unit
(** The daemon flushed a pack buffer holding a message stamped
    [submit_ns]; every active collector counts it. *)

(** {2 Stage names} *)

val stage_submit_wait : string
val stage_order : string
val stage_deliver : string
val stage_apply : string
val stage_e2e : string
val stage_names : string list

(** {2 Reporting} *)

type stage_report = {
  stage : string;
  count : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

val report : t -> stage_report list
val report_of_metrics : Metrics.t -> stage_report list
(** Stage quantiles from any registry holding [span.*] histograms
    (e.g. one merged across nodes); empty stages are omitted. *)

val pp_report : Format.formatter -> stage_report list -> unit
