(** A protocol participant: ordering engine + bounded receive queues +
    priority policy.

    [Node] is the runtime-agnostic composition both the discrete-event
    simulator and the real UDP runtime drive. It models what the paper's
    implementations do with two UDP sockets (Section III-D): tokens and data
    arrive on separate queues, and the {!Priority} policy decides which
    queue to serve when both are non-empty. Queues are bounded in bytes,
    like kernel socket buffers — enqueueing beyond the bound drops the
    message, which is precisely the failure mode an excessive accelerated
    window provokes.

    The engine builds this node's actions itself, through an
    {!Engine.sink} of [Participant] constructors made once in {!create}:
    {!process} and {!fire_timer} hand the engine's list to the runtime
    unchanged, and a token visit allocates only what it hands on (the
    forwarded token, its [Unicast], each [Multicast] and their cells).

    The caller loop is:
    {v
      Node.receive node msg        (* on packet arrival; may drop *)
      ...
      match Node.take_next node with
      | Some msg -> interpret (Node.process node msg)   (* charge CPU *)
      | None -> idle
    v} *)

open Aring_wire

type t

type Participant.timer +=
  | Engine_timer of Engine.timer_kind
        (** An ordering-engine timer, keyed by the engine's kind alone
            (exposed for tests): the runtime keeps one pending timer per
            kind, so each token visit's re-arm supersedes the last
            visit's. A node's timers die with its configuration: the
            {!Member} leaving [Operational] disarms both keys
            ({!disarm_timers}) before its next node can arm them. Each
            node builds its two [Arm_timer] actions once, into its sink's
            shared timer tails; this is the one wrapper a timer gets on
            its way to the runtime. *)

val disarm_timers : Participant.action list
(** Disarms of both engine timer keys, built once. *)

val create :
  params:Params.t ->
  ring_id:Types.ring_id ->
  ring:Types.pid array ->
  me:Types.pid ->
  t
(** [create] builds an operational participant of an installed ring.
    Its queues hold 256 KiB (token) and 2 MiB (data), matching a tuned
    production socket-buffer setup. *)

val start : t -> Participant.action list
(** Actions to perform at installation time: arming the token-loss timer
    (a list built in {!create}), and — only on the ring's representative —
    sending itself the initial token (returned as a [Unicast] to self so
    the runtime loops it through the normal receive path). *)

val submit : t -> Types.service -> bytes -> unit
(** Queue a client message for multicast on a future token visit
    ({!Engine.submit}: no input box, no record per message). *)

val receive : t -> Message.t -> [ `Queued | `Dropped ]
(** A packet arrived from the network. It is classified (token queue vs
    data queue) and buffered, or dropped when the queue is full. *)

val has_work : t -> bool

val take_next : t -> Message.t option
(** Remove the next message to process, per the priority policy: data
    messages have high priority after a token was processed; the token
    regains priority per method 1/2 once the predecessor's next-round data
    is seen; an empty queue never blocks the other type. The option is
    the queue's own: nothing is boxed again. *)

val process : t -> Message.t -> Participant.action list
(** Run the protocol on one message previously obtained from
    {!take_next}: {!Engine.token} or {!Engine.data} with the node's sink,
    whose list is returned as it is. *)

val fire_timer : t -> Participant.timer -> Participant.action list
(** {!Engine.timer} with the node's sink. Timers other than
    {!Engine_timer} are ignored (empty action list). *)

val participant : t -> Participant.t
(** Package this node behind the uniform runtime interface. *)

val engine : t -> Engine.t
(** The underlying ordering engine (introspection for tests/stats). *)
