(** Always-on flight recorder, and the one event type of the stack:
    per-node fixed-capacity rings of compact eleven-word binary records
    (timestamp, event code, nine int arguments [a]–[i]). Steady-state
    recording allocates nothing once a node's ring exists.

    Every record is handed whole to every subscriber: {!Health} and
    {!Span}, the {!Checker} and the {!Rotation} profiler, and any
    {!Trace} sink, so each protocol step is reported once, here. The
    engine's {!ev_deliver} is the ordering layer's delivery; the
    runtimes' interpreters record {!ev_app_deliver} and
    {!ev_view_install} for what the application got after the
    participant boundary. One JSONL codec ({!to_line}, {!of_line}),
    with named fields per code, serves the [--trace] stream and the
    post-mortem dump. *)

val set_enabled : bool -> unit
(** Recording is on by default; disabling is for overhead baselines. It
    stops only the ring writes: subscribers still see every record. *)

val reset : unit -> unit
(** Drop every ring (a fresh run should start from an empty recorder). *)

val set_capacity : int -> unit
(** Records retained per node (default 512). Resets the recorder. *)

val capacity : unit -> int

val set_clock : (unit -> int) -> unit
(** Timestamp source for {!now}, in nanoseconds. The simulator installs
    its virtual clock; the UDP runtime installs a wall clock. *)

val now : unit -> int
(** Current reading of the installed clock, in nanoseconds: each
    record's stamp, and the clock of the sans-IO layers (the health
    watchdog and latency spans). *)

(** {2 Event codes} *)

(** Arguments not listed are 0. The codes that use [e]–[i] carry a
    ring id ({!pack_ring}) in [e]: {!ev_token_recv}, {!ev_token_send},
    {!ev_data_send}, {!ev_deliver}, {!ev_xfer}, {!ev_app_deliver} and
    {!ev_view_install}. *)

val ev_token_recv : int
(** A regular token accepted: [a] = token id, [b] = token seq, [c] =
    token aru, [d] = this node's local aru; [e] = ring, [f] = this
    node's round, [g] = its safe line. *)

val ev_token_send : int
(** The updated token forwarded: [a] = token id, [b] = token seq, [c] =
    token aru, [d] = retransmission requests carried; [e] = ring, [f] =
    round, [g] = safe line, [h] = token fcc, [i] = this node's local
    aru. *)

val ev_token_retransmit : int
(** [a] = token id, [b] = retransmission attempt. *)

val ev_token_lost : int
(** The token-loss timer fired: [a] = this node's round. *)

val ev_data_send : int
(** [a] = seq, [b] = 1 when sent after the token, [c] = 1 on a
    retransmission. For a new message [d] = its submit stamp
    ({!Span.submit_stamp}: 0 when no span collector was attached); 0 on
    retransmissions. [e] = ring, [f] = the message's wire size. *)

val ev_data_recv : int
(** [a] = seq, [b] = sender, [c] = 1 for a duplicate, 2 for a message
    beyond the receive window's ceiling, dropped as lost. *)

val ev_deliver : int
(** The engine delivered in order: [a] = seq, [b] = sender, [c] = service
    ([Message.service_tag]; 4 for recovery data, which the membership
    layer takes); [e] = ring. One per ordered message at the ordering layer,
    whatever the layers above do with it. *)

val ev_phase : int
(** A membership phase entered: [a] = phase code (below), [b] = the
    member's join sequence, one per gather entered, so the phases of one
    formation attempt share it. *)

val ev_flood : int
(** Recovery entry: [a] = old-ring messages this node submits to the new
    ring as recovery data, [b] = lowest survivor aru, [c] = highest seq
    held, [d] = 0. *)

val ev_apply : int
(** A replica applied an op: [a] = applied index, [b] = 1 for a delete. *)

val ev_dedup : int
(** Designated-holder dedup at recovery entry: [a] = exchange-range
    messages held, [b] = submitted as recovery data (this node their
    sender), [c] = sends saved by dedup. *)

val ev_mcas : int
(** Cross-shard cas life cycle at a replica: [a] = ring id; on park
    [b] = this ring's vote (1 = yes), [c] = 2 when the vote wounded a
    waiter and [d] = involved-ring count; on resolve [b] = 2 (abort) /
    3 (commit) with [c] = 1. *)

val ev_skip : int
(** A skip-generator fired on an idle ring: [a] = ring id, [b] = the
    position the skip names. *)

val ev_merge : int
(** Learner merge progress at a node: [a] = ring id popped, [b] =
    merged-stream length. *)

val ev_crash : int
(** The simulator crashed this participant ({!Aring_sim.Netsim.crash}). *)

val ev_drop : int
(** The simulated network dropped a packet bound for this node: [a] =
    reason code (below), [b] = the packet's wire size. *)

val ev_xfer : int
(** A KV state-transfer step at a replica: [a] = donor, [b] = phase code
    (below), [c] = ops applied, [d] = entries; [e] = the view's ring id. *)

val ev_app_deliver : int
(** A runtime handed the application a message ([Participant.Deliver]):
    [a] = seq, [b] = sender, [c] = service ([Message.service_tag]), [d]
    = 1 on a copy after the first; [e] = ring. Unlike {!ev_deliver} it
    follows the participant boundary: a fault injector may drop a
    delivery here, a member's recovery deliveries reach it, and a daemon
    that hands one delivery (one packed Batch included) to [k] local
    recipients yields [k] of these, the first with [d] = 0. *)

val ev_view_install : int
(** A runtime handed the application a configuration: [a] = 1 when
    transitional, [b] = member count; [e] = ring. *)

val ev_session_cut : int
(** A daemon ended a slow-receiver session whose next park would pass
    [Aring_daemon.Daemon.slow_inbox_limit_bytes]: [a] = messages it had
    parked, [b] = their frame bytes. The record's node is the daemon's
    pid. *)

(** {2 Phase codes} ([ev_phase]'s argument [a]) *)

val phase_operational : int
val phase_gather : int
val phase_commit : int
val phase_recover : int

val phase_name : int -> string
(** ["operational"], ["gather"], ["commit"], ["recover"]; ["unknown"]
    for any other code. *)

(** {2 Drop reasons} ([ev_drop]'s argument [a]) *)

val drop_partition : int
val drop_random : int
val drop_switch : int

val drop_reason_name : int -> string
(** ["partition"], ["random"], ["switch"]; ["unknown"] otherwise. *)

(** {2 State-transfer phases} ([ev_xfer]'s argument [b]) *)

val xfer_hello : int
val xfer_elect : int
val xfer_snapshot : int
val xfer_install : int
val xfer_abort : int
val xfer_reset : int

val xfer_phase_name : int -> string
(** ["hello"], ["elect"], ["snapshot"], ["install"], ["abort"],
    ["reset"]; ["unknown"] otherwise. *)

val service_name : int -> string
(** The service of {!ev_app_deliver}'s [c] (["agreed"], ["safe"], ...);
    ["unknown"] for any int that is no service tag. *)

val code_name : int -> string
(** The code's name, the ["ev"] of its JSONL lines (["deliver"],
    ["app_deliver"], ...); ["unknown"] for any other int. *)

(** {2 Recording} *)

val record_at :
  ns:int -> node:int -> code:int -> a:int -> b:int -> c:int -> d:int ->
  e:int -> f:int -> g:int -> h:int -> i:int -> unit
(** Append one record stamped [ns] to [node]'s ring, overwriting the
    oldest once full, then hand it to every subscriber. Zero-allocation
    after the node's first record. The ring write is skipped when
    disabled or [node < 0]; subscribers see the record either way. The
    simulator stamps a delivery with its CPU cursor, a better time than
    the global clock. *)

val record_wide :
  node:int -> code:int -> a:int -> b:int -> c:int -> d:int -> e:int ->
  f:int -> g:int -> h:int -> i:int -> unit
(** {!record_at} stamped with {!now}. *)

val record : node:int -> code:int -> a:int -> b:int -> c:int -> d:int -> unit
(** {!record_wide} with [e]–[i] = 0, for the codes without a wide layout. *)

val pack_ring : Aring_wire.Types.ring_id -> int
(** A ring id as one int, exact for [rep] in \[-2{^30}, 2{^30}) and
    [ring_seq] in \[-2{^31}, 2{^31}) (signed 32 bits, as the KV op codec
    encodes it); outside those bounds the high bits are lost. *)

val unpack_ring : int -> Aring_wire.Types.ring_id
(** Inverse of {!pack_ring} within its bounds; [pack_ring (unpack_ring k)
    = k] for every int. *)

(** {2 Subscribers} *)

type subscriber =
  ns:int -> node:int -> code:int -> a:int -> b:int -> c:int -> d:int ->
  e:int -> f:int -> g:int -> h:int -> i:int -> unit

val subscribe : subscriber -> unit
(** Add a subscriber (a no-op if this very function is subscribed
    already). Subscribers run in subscription order, synchronously,
    inside {!record_at}; they must not allocate on records they
    ignore. *)

val unsubscribe : subscriber -> unit
(** Remove a subscriber, compared by physical equality. *)

(** {2 Readout} *)

type event = {
  ns : int;
  node : int;
  code : int;
  a : int;
  b : int;
  c : int;
  d : int;
  e : int;
  f : int;
  g : int;
  h : int;
  i : int;
}
(** One record, read out. *)

val records : unit -> event list
(** Every retained record across all nodes, time-ordered. *)

val total : unit -> int
(** Lifetime records written (including overwritten ones). *)

val stored : unit -> int
(** Records currently retained. *)

(** {2 JSONL} *)

val to_line : event -> string
(** One JSON object: ["ns"], ["node"], ["ev"] (the {!code_name}), then
    each argument under its layout's name (a ring id as [[rep,ring_seq]]);
    an argument outside the layout appears under its letter (["e"]) only
    when non-zero. {!of_line} reads every line back exactly. *)

val of_line : string -> event
(** Raises {!Json.Parse_error} on malformed JSON, an unknown ["ev"], or
    a missing or ill-typed field of the code's layout. *)

val output_line : out_channel -> event -> unit
(** {!to_line} and a newline. *)

val read_file : string -> event list
(** Read a JSONL file (blank lines ignored); a parse error names the
    line. *)

val dump_jsonl_file : string -> unit
(** {!records}, one {!to_line} line each. *)
