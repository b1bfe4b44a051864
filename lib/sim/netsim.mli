(** Deterministic discrete-event simulator of a switched LAN cluster.

    Models the components the paper's result depends on:

    - {b NIC egress}: each node's sends serialize onto its link at the
      configured rate (one transmission per multicast — IP-multicast
      replication happens in the switch).
    - {b Switch}: store-and-forward with one drop-tail output-port buffer
      per node; multicast fan-out enqueues the packet on every other port.
    - {b Node ingress}: the participant's bounded token/data queues model
      kernel socket buffers (see {!Aring_ring.Node}).
    - {b CPU}: a node processes one message at a time; the per-operation
      costs come from the node's {!Profile.tier}. Sends and deliveries
      performed while handling a message occupy the CPU serially, in the
      action order the engine emitted — which is exactly how the token
      leaves before post-token multicasts.
    - {b Faults}: random per-receiver loss, a programmable drop predicate
      (partitions), and node crashes.
    - {b Timers}: one pending timer per (node, key). Arming a key that is
      still pending re-keys its queued event in place, so the old
      deadline is never dispatched and leaves nothing in the queue, and
      disarming a key removes its event; a disarm costs no CPU (see
      {!Participant.action}).

    Everything is deterministic for a given seed: events are ordered by
    (time, insertion sequence). Time is in nanoseconds from 0. *)

open Aring_wire
open Aring_ring

type t

type stats = {
  mutable packets_sent : int;  (** NIC transmissions (multicast counts 1). *)
  mutable switch_drops : int;  (** Output-port buffer overflows. *)
  mutable random_losses : int;  (** Per-receiver random losses. *)
  mutable partition_drops : int;  (** Dropped by the partition predicate. *)
}

val create :
  net:Profile.net ->
  tiers:Profile.tier array ->
  participants:Participant.t array ->
  ?seed:int64 ->
  unit ->
  t
(** [create ~net ~tiers ~participants ()] builds a cluster in which
    participant [i] runs on a host with cost profile [tiers.(i)]. The
    participants' [start] actions are scheduled at time 0. *)

val now : t -> int
val stats : t -> stats

val record_metrics : t -> Aring_obs.Metrics.t -> unit
(** Export the network counters into a metrics registry under
    ["netsim.*"] names, with [netsim.timers_fired] (timers handed to a
    live participant), [netsim.timers_superseded] (timers replaced by
    a re-arm of their key before they were due), [netsim.events] (events
    dispatched) and [netsim.events_pending_peak] (the most events queued
    at once).

    [create] also points {!Aring_obs.Flight}'s clock at the simulated
    clock, so records carry virtual-time timestamps. Switch, loss and
    partition drops ({!Aring_obs.Flight.ev_drop}) and crashes
    ({!Aring_obs.Flight.ev_crash}) are flight records, and so is every
    delivery and view install the interpreter hands a participant's
    application ({!Aring_obs.Flight.ev_app_deliver},
    {!Aring_obs.Flight.ev_view_install}, stamped with the CPU cursor at
    which the application gets it). *)

(** {2 Instrumentation hooks} *)

val on_deliver : t -> (at:int -> now:int -> Message.data -> unit) -> unit
(** Called for every message delivered to the application at any node. *)

val on_view : t -> (at:int -> now:int -> Participant.view -> unit) -> unit
(** Called for every configuration (view) delivered at any node. *)

(** {2 Workload and fault injection} *)

val submit_at : t -> at:int -> node:int -> Types.service -> bytes -> unit
(** Schedule a client submission (charged the tier's submit cost). *)

val submit_now : t -> node:int -> Types.service -> bytes -> unit
(** Submit immediately at the current simulated time — for use inside
    {!call_at} callbacks (workload generators). *)

val call_at : t -> at:int -> (unit -> unit) -> unit
(** Schedule an arbitrary callback (workload generators reschedule
    themselves with this). The callback runs at the scheduled simulated
    time; it may inspect the simulator and schedule further events. *)

val set_drop : t -> (src:int -> dst:int -> Message.t -> bool) -> unit
(** Install a drop predicate evaluated per receiver at the switch —
    [fun ~src ~dst _ -> ...] returning [true] drops. Use it to create
    partitions; replace with [fun ~src:_ ~dst:_ _ -> false] to heal. *)

val set_drop_until : t -> until:int -> (src:int -> dst:int -> Message.t -> bool) -> unit
(** Timed fault window with automatic heal: layer a drop predicate over
    whatever is currently installed (a packet drops when either says so)
    and schedule its removal at simulated time [until], restoring the
    predicate that was in force when this call was made. Windows opened
    while another is active must close in LIFO order to restore cleanly;
    for arbitrary overlap, recompute with {!set_drop} instead. *)

(** {2 Latency tiers}

    By default every link runs at [net.bandwidth_bps] with a uniform
    one-way [net.latency_ns]. Latency classes add per-pair latency on top;
    with every class at 0 ns the simulator schedules {e byte-identical}
    event streams to a run without them, so pinned trace hashes hold. *)

val set_latency_classes : t -> classes:int array -> matrix:int array array -> unit
(** WAN/geo latency tiers: node [i] belongs to class [classes.(i)], and a
    packet from class [a] to class [b] pays [matrix.(a).(b)] extra ns —
    e.g. two sites with [[|0;0;1;1|]] and
    [[| [|0; wan|]; [|wan; 0|] |]]. Both arrays are copied. *)

val set_domains : t -> int array -> unit
(** Partition the nodes into multicast domains: a multicast from node [i]
    fans out only to nodes [j] with [dom.(j) = dom.(i)] (multi-ring
    isolation — each ring's participants form one domain). Cross-domain
    destinations are pruned before any loss/buffer accounting, so
    same-domain event streams are byte-identical to a run without the
    other domains. Unicast is unaffected. The array is copied; it must
    cover every node. By default all nodes share one domain. *)

val crash : t -> int -> unit
(** Node stops processing and receiving, permanently. Records
    [Flight.ev_crash], which is how an attached health watchdog learns
    of the crash. *)

val is_alive : t -> int -> bool

(** {2 Execution} *)

val run_until : t -> int -> unit
(** Process all events with time ≤ the given horizon (ns). *)
