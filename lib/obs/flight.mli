(** Always-on flight recorder: per-node fixed-capacity rings of compact
    eleven-word binary records (timestamp, event code, nine int arguments
    [a]–[i]), kept even when no {!Trace} sink is installed. Steady-state
    recording allocates nothing once a node's ring exists. Dump on demand
    as JSONL.

    The recorder is also the one feed of the always-on instruments:
    {!Health} and {!Span} subscribe and decode the records they need,
    so each protocol step is reported once, here. Nine codes whose record
    carries every field of their trace event — {!ev_token_recv},
    {!ev_token_send}, {!ev_data_send}, {!ev_token_retransmit},
    {!ev_token_lost}, {!ev_phase}, {!ev_crash}, {!ev_drop} and
    {!ev_xfer} — also reach the installed {!Trace} sink, as the kind
    their dump lines name in ["ev"] (["drop"] and ["app_xfer"] for the
    last two); no other code does. *)

val set_enabled : bool -> unit
(** Recording is on by default; disabling is for overhead baselines. It
    stops only the ring writes: subscribers and the trace sink still see
    every record. *)

val reset : unit -> unit
(** Drop every ring (a fresh run should start from an empty recorder). *)

val set_capacity : int -> unit
(** Records retained per node (default 512). Resets the recorder. *)

val capacity : unit -> int

(** {2 Event codes} *)

(** Arguments not listed are 0. Only the four codes recorded through
    {!record_wide} use [e]–[i]: {!ev_token_recv}, {!ev_token_send},
    {!ev_data_send} and {!ev_xfer} carry a ring id ({!pack_ring}) in
    [e]. *)

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
(** [a] = seq, [b] = sender. *)

val ev_phase : int
(** A membership phase entered: [a] = phase code (below), [b] = the
    member's join sequence, one per gather entered, so the phases of one
    formation attempt share it. *)

val ev_recheck : int
(** An exchange recheck fired: [a] = recheck number, [b] = the
    member's join sequence. *)

val ev_recheck_giveup : int
(** Rechecks exhausted, the node re-gathers: [a] = recheck number, [b] =
    the member's join sequence. *)

val ev_flood : int
(** Recovery entry: [a] = exchange messages queued for paced bursts
    (counted as they are sent, at each {!ev_burst}), [b] = lowest
    survivor aru, [c] = highest seq held, [d] = 0. *)

val ev_apply : int
(** A replica applied an op: [a] = applied index, [b] = 1 for a delete. *)

val ev_dedup : int
(** Designated-holder dedup at recovery entry: [a] = exchange-range
    messages held, [b] = queued for flooding (this node designated),
    [c] = sends saved by dedup, [d] = this node's survivor position. *)

val ev_burst : int
(** One paced flood burst: [a] = messages multicast, [b] = still
    queued after the burst. *)

val ev_nack : int
(** A recheck found advertised exchange messages still missing and
    multicast a cumulative nack: [a] = missing seqnos, [b] = compacted
    ranges, [c] = recheck number. *)

val ev_resend : int
(** This node answered a nack as the (re-)elected holder: [a] =
    messages queued for resend, [b] = nack'd seqnos examined. *)

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

(** {2 Phase codes} ([ev_phase]'s argument [a]) *)

val phase_operational : int
val phase_gather : int
val phase_commit : int
val phase_recover : int

val phase_name : int -> string
(** ["operational"], ["gather"], ["commit"], ["recover"]; ["unknown"]
    for any other code. The [Phase] trace event carries this name. *)

(** {2 Drop reasons} ([ev_drop]'s argument [a])

    The [Drop] trace event carries the reason's name: ["partition"],
    ["random"] or ["switch"]. *)

val drop_partition : int
val drop_random : int
val drop_switch : int

(** {2 State-transfer phases} ([ev_xfer]'s argument [b])

    The [App_xfer] trace event carries the phase's name: ["hello"],
    ["elect"], ["snapshot"], ["install"], ["abort"] or ["reset"]. *)

val xfer_hello : int
val xfer_elect : int
val xfer_snapshot : int
val xfer_install : int
val xfer_abort : int
val xfer_reset : int

(** {2 Recording} *)

val record_wide :
  node:int -> code:int -> a:int -> b:int -> c:int -> d:int -> e:int ->
  f:int -> g:int -> h:int -> i:int -> unit
(** Append one record to [node]'s ring, overwriting the oldest once
    full, then hand [a]–[d] to every subscriber and, for the nine
    traced codes, emit its trace event when a sink is installed.
    Zero-allocation after the node's first record when no sink is
    installed. The ring write is skipped when disabled or [node < 0];
    subscribers and the trace sink see the record either way. *)

val record : node:int -> code:int -> a:int -> b:int -> c:int -> d:int -> unit
(** {!record_wide} with [e]–[i] = 0, for the codes without a wide layout. *)

val pack_ring : Aring_wire.Types.ring_id -> int
(** A ring id as one int, exact for [rep] in \[-2{^30}, 2{^30}) and
    [ring_seq] in \[-2{^31}, 2{^31}) (signed 32 bits, as the KV op codec
    encodes it); outside those bounds the high bits are lost. *)

(** {2 Subscribers} *)

type subscriber = node:int -> code:int -> a:int -> b:int -> c:int -> d:int -> unit

val subscribe : subscriber -> unit
(** Add a subscriber (a no-op if this very function is subscribed
    already). Subscribers run in subscription order, synchronously,
    inside {!record}; they must not allocate on records they ignore. *)

val unsubscribe : subscriber -> unit
(** Remove a subscriber, compared by physical equality. *)

(** {2 Readout} *)

type record_view = {
  r_ns : int;
  r_node : int;
  r_code : int;
  r_a : int;
  r_b : int;
  r_c : int;
  r_d : int;
}

val records : unit -> record_view list
(** Every retained record across all nodes, time-ordered. The readout
    and the dump carry [a]–[d], the part every layout shares. *)

val total : unit -> int
(** Lifetime records written (including overwritten ones). *)

val stored : unit -> int
(** Records currently retained. *)

val dump_jsonl_file : string -> unit
(** One JSON object per retained record, time-ordered, with the code's
    name in ["ev"]. *)
