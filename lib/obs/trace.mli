(** Structured protocol tracing.

    A trace event records one observable step of one node: token motion,
    data sends, delivery, views, membership phase changes, faults,
    window decisions and state transfer. Events flow into a pluggable
    {!sink}; when no sink is installed, instrumentation costs one branch
    ([enabled ()] is false), so production and benchmark runs are
    unaffected — pay for what you use.

    Each step is reported once. [Token_recv], [Token_send],
    [Data_send], [Token_retransmit], [Token_lost], [Phase], [Crash],
    [Drop] and [App_xfer] are decoded from their step's
    record by {!Flight.record_wide} and emitted nowhere else, so every
    flight dump holds those steps whether or not a sink was installed.
    Only [Deliver] and [View_install] are built outside this library,
    by the runtimes' interpreters ([Participant.trace_action]):
    [Deliver] reports what the application got after the participant
    boundary, where a fault injector may drop it (the {!Checker} sees
    that only here), and a member's recovery deliveries never pass the
    engine's {!Flight.ev_deliver} record.
    Every kind carries only the fields the trace's readers need: the
    {!Checker}, the {!Rotation} profiler and the {!Chrome_trace} view.
    Steps nothing reads (data receipt, timer activity, flow-control
    decisions, duplicate tokens, KV applies and reads) are flight
    records or counters, not trace events.

    The clock is pluggable so the same hooks serve the discrete-event
    simulator (virtual nanoseconds) and the UDP runtime (wall clock). *)

open Aring_wire

type kind =
  | Token_recv of {
      ring : Types.ring_id;
      token_id : int;
      round : int;
      seq : int;
      aru : int;
      local_aru : int;
      safe_line : int;
    }  (** A regular token accepted (not a duplicate). *)
  | Token_send of {
      ring : Types.ring_id;
      token_id : int;
      round : int;
      seq : int;
      aru : int;
      fcc : int;
      rtr : int;
      local_aru : int;
      safe_line : int;
    }  (** The updated token forwarded to the successor. *)
  | Token_retransmit of { token_id : int; attempt : int }
  | Token_lost
  | Data_send of {
      ring : Types.ring_id;
      seq : int;
      size : int;
      post_token : bool;
      retrans : bool;
    }
  | Deliver of { ring : Types.ring_id; seq : int; sender : int; service : string }
  | View_install of {
      ring : Types.ring_id;
      members : Types.pid list;
      transitional : bool;
    }
  | Phase of { phase : string }
      (** Membership phase entered ({!Flight.phase_name}). *)
  | Crash
  | Drop of { reason : string; size : int }
  | App_xfer of {
      view : Types.ring_id;
      donor : Types.pid;
      phase : string;
      applied : int;
      entries : int;
    }
      (** State-transfer progress at a replica: phase is ["hello"],
          ["elect"], ["snapshot"], ["install"], ["abort"] or ["reset"]. *)

type event = { t_ns : int; node : int; kind : kind }

type sink = { emit : event -> unit; flush : unit -> unit }

(** {1 Global sink and clock} *)

val enabled : unit -> bool
(** True when a sink is installed. Call sites guard event construction
    with this so disabled tracing is one load+branch. *)

val current : unit -> sink option
val install : sink -> unit

val uninstall : unit -> unit
(** Flushes the installed sink, then removes it. *)

val set_clock : (unit -> int) -> unit
(** Timestamp source for {!now}, in nanoseconds. The simulator installs
    its virtual clock; the UDP runtime installs a wall clock. *)

val now : unit -> int
(** Current reading of the installed clock, in nanoseconds. Lets
    sans-IO layers (e.g. the health watchdog and latency spans) measure
    durations without owning a clock of their own. *)

val emit_at : t_ns:int -> node:int -> kind -> unit
(** Emit an event stamped [t_ns]. No-op when no sink is installed.
    {!Flight.record_wide} stamps with {!now}; the runtimes' interpreters,
    which model CPU cursors, know a better time than the global clock. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] installs [s] (stacking over any current sink, which
    is restored afterwards), runs [f], and flushes [s]. *)

(** {1 Sinks} *)

val tee : sink list -> sink
val fn_sink : (event -> unit) -> sink

type memory
(** Unbounded in-memory collector, for tests and exporters. *)

val memory : unit -> memory
val memory_sink : memory -> sink
val memory_events : memory -> event list
(** In emission order. *)

val memory_count : memory -> int

(** {1 Printing} *)

val kind_name : kind -> string
val pp_event : Format.formatter -> event -> unit
