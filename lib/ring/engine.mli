(** The Accelerated Ring ordering engine (Section III of the paper).

    The engine is a sans-IO state machine: it owns no sockets, no clock and
    no threads. Callers feed it {!type:input} events (a received token, a
    received data message, a client submission, an expired timer) and
    interpret the returned {!type:output} list. The {b order} of the output
    list is the protocol's send order and encodes the acceleration:

    {v
      [ retransmissions ...        (pre-token, answering rtr)
      ; new multicasts ...         (pre-token overflow beyond the
                                    accelerated window)
      ; Send_token                 (the token leaves here)
      ; new multicasts ...         (post-token phase: at most
                                    accelerated_window messages)
      ; Deliver ...                (newly deliverable messages)
      ; Set_timer retransmit
      ; Set_timer loss ]           (the re-arms, shared by every visit)
    v}

    With [accelerated_window = 0] the post-token phase is empty and the
    engine behaves as the original Totem/Spread Ring protocol.

    A runtime does not have to translate outputs: {!token}, {!timer} and
    {!data} build its own actions, in the same order, through a {!sink}
    of its constructors. {!handle} is that same code with the engine's
    own {!outputs} sink.

    One engine instance serves one installed ring configuration. Membership
    changes tear the engine down and build a fresh one (see {!Member}).
    The engine outputs nothing when the token is lost: the loss timer's
    fire records {!Aring_obs.Flight.ev_token_lost} and returns [[]], and
    the layer that armed the timer decides what the loss means. *)

open Aring_wire

type timer_kind =
  | Token_retransmit
      (** Re-send the saved token if no progress was observed. *)
  | Token_loss
      (** Declare the token lost: record it, output nothing. A {!Member}
          reacts to this timer's fire by starting the membership
          algorithm. *)

type input =
  | Token_received of Message.token
  | Data_received of Message.data
  | Submit of Types.service * bytes
      (** A client message enters the pending queue; it is multicast on a
          future token visit, subject to flow control. *)
  | Timer_expired of timer_kind
      (** The pending timer of [kind] ran out. The runtime keeps one
          pending timer per kind (a [Set_timer] supersedes the one before
          it), so this is always the latest arm's: [Token_loss] means no
          token was accepted since, and [Token_retransmit] re-sends the
          saved token unless progress evidence arrived in the meantime. *)

type output =
  | Send_token of Types.pid * Message.token
      (** Unicast the token to the ring successor. *)
  | Send_data of Message.data
      (** Multicast a data message to all other participants. *)
  | Deliver of Message.data
      (** Hand the message to the application, in total order. *)
  | Set_timer of timer_kind * int
      (** [Set_timer (kind, delay_ns)]: feed back [Timer_expired kind]
          after [delay_ns], replacing any timer of [kind] still pending —
          a superseded timer must never be fed back. Each engine builds
          its two [Set_timer] values once, so every accepted token re-arms
          both without allocating them. *)

type 'a sink = {
  send_token : Types.pid -> Message.token -> 'a;
      (** Unicast the token to the ring successor ([Send_token]). *)
  send_data : Message.data -> 'a;  (** Multicast a data message ([Send_data]). *)
  deliver : Message.data -> 'a;  (** Hand a message to the application ([Deliver]). *)
  rearm : 'a list;
      (** Arms of both timers, retransmit then loss: the tail of every
          accepted token's list, shared by every visit. *)
  rearm_retransmit : 'a list;
      (** The retransmit timer's arm alone: the tail of a token re-send. *)
}
(** A caller's constructors for the engine's outputs, built once per
    engine or runtime node. A token visit built through a sink allocates
    only what it hands on: the forwarded token, what [send_token] builds
    around it and each message sent, with their list cells; deliveries
    cost what [deliver] builds and one cell each, and the timer tails are
    shared, not rebuilt. *)

type stats = {
  mutable rounds : int;  (** Tokens accepted (rotations seen locally). *)
  mutable new_sent : int;  (** New messages initiated. *)
  mutable retrans_sent : int;  (** Retransmissions answered. *)
  mutable rtr_requested : int;  (** Retransmission requests added. *)
  mutable delivered : int;  (** Messages delivered to the application. *)
  mutable dup_tokens : int;  (** Duplicate/stale tokens discarded. *)
  mutable dup_data : int;  (** Duplicate data messages discarded. *)
  mutable token_retransmits : int;  (** Tokens re-sent on timeout. *)
}

type t

val create :
  params:Params.t ->
  ring_id:Types.ring_id ->
  ring:Types.pid array ->
  me:Types.pid ->
  t
(** [create ~params ~ring_id ~ring ~me] is a participant engine for the
    installed configuration [ring] (pids in ring order; the token flows in
    array order, wrapping). [me] must occur in [ring]. The engine is idle
    until it receives the initial token (see {!initial_token}) or data. *)

val initial_token : Types.ring_id -> Message.token
(** The first regular token of a freshly installed ring. The installer
    hands it to the representative by feeding
    [Token_received (initial_token rid)] to its engine. *)

val outputs : t -> output sink
(** The engine's own constructors ([Send_token], [Send_data], [Deliver],
    its two [Set_timer] values), built once in {!create}. *)

val handle : t -> input -> output list
(** [handle t input] advances the state machine. See the module preamble
    for output ordering guarantees. It runs {!token}, {!data}, {!submit}
    and {!timer} with the {!outputs} sink. *)

val token : t -> 'a sink -> Message.token -> 'a list
(** [token t sink tok] is [handle t (Token_received tok)] without building
    the input, with each output built by [sink]: [token t (outputs t) tok]
    is that [handle] call's list. A token of another ring is ignored. *)

val timer : t -> 'a sink -> timer_kind -> 'a list
(** [timer t sink kind] is [handle t (Timer_expired kind)], built by
    [sink]: a token re-send and its retransmit re-arm, or nothing. A
    [Token_loss] fire records {!Aring_obs.Flight.ev_token_lost} (the
    source of the trace's [Token_lost] event) and returns [[]]. *)

val submit : t -> Types.service -> bytes -> unit
(** [submit t service payload] is [handle t (Submit (service, payload))]:
    it queues the message in a ring of unboxed arrays, with no input box
    and no record per message. A [Types.Recovered] message carries no
    span stamp. *)

val data : t -> (Message.data -> 'a) -> Message.data -> 'a list
(** [data t deliver d] is [handle t (Data_received d)] without building
    the input, with each delivery built by [deliver] instead of
    [Deliver]: [data t (fun d -> Deliver d) d] is that [handle] call's
    list. A data message's outputs are its deliveries alone, so it takes
    only a sink's [deliver]. Data of another ring is ignored. *)

(** {2 Introspection} *)

val me : t -> Types.pid
val ring_id : t -> Types.ring_id
val ring : t -> Types.pid array
val predecessor : t -> Types.pid
val round : t -> Types.round
(** Rounds completed locally (= tokens accepted). *)

val local_aru : t -> Types.seqno
(** Highest contiguously received sequence number. *)

val delivered_upto : t -> Types.seqno
(** Delivery cursor: every message with a sequence number at or below this
    has been delivered. *)

val safe_line : t -> Types.seqno
(** Stability floor: messages at or below are known received by all. *)

val high_seq : t -> Types.seqno
(** Highest sequence number seen (token or data). *)

val pending_count : t -> int
(** Client messages waiting for a token visit. *)

val buffered_count : t -> int
(** Messages held in the receive window: every message received or sent
    in this configuration whose seq is above the discard floor, the
    lower of {!safe_line} and {!delivered_upto} as of the last token
    (below it, a message is delivered here and received by all, so never
    requested again). The window is an array indexed by seq that grows
    by doubling up to a ceiling of twice [max_seq_gap + 2 *
    global_window] (rounded up to a power of two), a span flow control
    never reaches; a data message beyond it is dropped as lost (and
    asked for again by the token's rtr once the floor has risen), so no
    seq, however corrupt, grows the window past the ceiling. *)

val stats : t -> stats

val record_metrics : ?prefix:string -> t -> Aring_obs.Metrics.t -> unit
(** Export the engine counters into a metrics registry under
    ["engine.*"] names, adding to any values already there (so per-node
    exports accumulate into cluster totals). [prefix] is prepended to
    every name (e.g. ["ring1."] for per-ring registries). *)

val buffered_message : t -> Types.seqno -> Message.data option
(** [buffered_message t seq] is the message with sequence [seq] if the
    receive window holds it (see {!buffered_count}): [None] at or below
    the discard floor, and for a seq not received or dropped beyond the
    ceiling. Recovery uses it to re-originate old-ring messages. *)

val drain_pending : t -> (Types.service * bytes) list
(** Remove and return the client messages still waiting for a token visit,
    oldest first — the membership layer carries them into the next
    configuration. *)
