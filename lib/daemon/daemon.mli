(** A Spread-like group-communication daemon on top of the Accelerated Ring.

    The daemon provides the client-facing features the paper credits for
    Spread's success (Section I): a client-daemon architecture, named
    groups with open-group semantics (a sender need not be a member),
    multi-group multicast with ordering guarantees across groups, and group
    membership notifications consistent at all clients.

    Clients are in-process sessions; the cost of the client/daemon IPC hop
    is modelled by the simulator's tier profiles. Every state-changing
    client operation is encoded as an {!Envelope} and multicast through the
    ring, so all daemons apply it at the same point of the total order.

    After a configuration change, each daemon prunes group members hosted
    by departed daemons, notifies affected local clients, and re-announces
    its own clients' memberships in the new configuration — a state
    transfer that reconverges group views after partitions and merges.

    {b Host cost.} Each daemon keeps an index from every group to the
    names of its local recipients under union routing (see {!multicast}),
    in session-name order, updated where membership changes. Routing
    therefore costs in proportion to the recipients, never to the number
    of sessions the daemon hosts:
    - a [join] or [leave] call costs O(log r) for the group's r local
      recipients;
    - a delivered Join or Leave costs O(log m) in the group table of m
      members and a walk of the group's r index entries with one
      [on_group_view] per local member in the table; the sorted member
      list costs O(m) more, and only when a reader forces it;
    - a delivered single-group App envelope costs O(r), one
      [on_message] (or inbox push) per recipient, and no sort; an
      envelope naming k groups first merges their k indexes;
    - a configuration change rebuilds the index of each group it prunes,
      O(m) for that group.

    Delivery passes through in place. Envelope names and App group lists
    are read through a bounded per-daemon table ({!Envelope.names}), so
    a name seen before is handed to clients as the shared string the
    table holds, with no copy; a single-group App envelope is routed
    with no closure; and the engine's own [Deliver] action is handed on
    once per recipient, the action list coming back as it went in when
    every delivery has one.

    Submission is written once. Every client operation (App, Join,
    Leave) is written into one frame buffer per daemon, an App payload
    by its own writer ({!multicast_write}), and the frame is copied out
    once, at exact size, when it is submitted: at once, or at a packing
    flush, behind a Batch header when it holds two or more. *)

open Aring_wire
open Aring_ring

type t
type session

type callbacks = {
  on_message :
    sender:string -> groups:string list -> Types.service -> Codec.view -> unit;
      (** Invoked once per delivered application message addressed to a
          group this session belongs to (multi-group sends arrive once).
          The payload is a read-only view into the delivered frame, not a
          copy: every recipient of one envelope is handed the same bytes.
          Decode it in place or copy it ({!Codec.view_to_bytes}) to keep
          a value to mutate; a held view keeps the frame's payload alive,
          not the engine's message. *)
  on_group_view : group:string -> members:string list Lazy.t -> unit;
      (** Invoked when the delivered membership of a group changes, for
          each local session the delivered table names in that group.
          [members] is the group's view at that change, sorted, built
          only when forced: forcing it later, after further changes,
          still gives this view. One change notifies its local sessions
          in session-name order, the order deliveries use too. *)
}

type stats = {
  mutable client_deliveries : int;
  mutable group_notifications : int;
  mutable packs_sent : int;  (** Batch envelopes multicast. *)
  mutable envelopes_packed : int;  (** Envelopes carried inside batches. *)
  mutable sessions_cut : int;
      (** Slow-receiver sessions ended at {!slow_inbox_limit_bytes}. *)
}

val create : ?pack_threshold:int -> member:Member.t -> unit -> t
(** Build a daemon on a ring participant; drive the returned
    {!participant} with a runtime (simulator or UDP loop).

    Client envelopes smaller than [pack_threshold] bytes are packed
    into a single protocol packet of at most [pack_threshold] bytes —
    Spread's packing feature for amortizing per-packet costs over small
    messages. The default, 1,300, fills a 1,500 B frame; 0 packs
    nothing. Every submission (App, Join, Leave) is written once into
    one frame buffer: one at or above the threshold is submitted at
    once; smaller ones accumulate in it back to back, and a flush
    submits a single one as it is or puts a Batch header in front of
    two or more. Buffered submissions are flushed together when a token
    or commit token arrives for processing, and when a live timer
    fires. A timer superseded by a re-arm of its key never fires (see
    {!Participant.action}), so it flushes nothing: in steady state a
    pack holds what accumulated between two token visits. Packing
    trades a little latency for large small-message throughput gains. *)

val flush : t -> unit
(** Force out any buffered packed submissions now. *)

val participant : t -> Participant.t

val transform_actions : t -> Participant.action list -> Participant.action list
(** The pass {!participant} runs over the member's actions on every
    step, in list order: each delivery is applied (routed to local
    sessions, or to the group table) and its [Deliver] action repeated
    once per local recipient (kept once when there is none), and each
    regular configuration prunes and re-announces. When every delivery
    has exactly one recipient the result is [actions] itself ([==]),
    with nothing allocated. *)

val pid : t -> Types.pid
(** The hosting ring member's pid. *)

val set_view_handler : t -> (Participant.view -> unit) -> unit
(** Install an application-layer hook invoked for every delivered
    configuration (transitional and regular). For regular views it runs
    after the daemon has pruned departed members and re-announced its own
    sessions' joins, so envelopes the hook submits are sequenced after
    those Joins — the ordering the app-level state-transfer protocol
    relies on (see {!Aring_app.Kv}). One handler; a second call
    replaces the first. *)

val connect : t -> name:string -> callbacks -> session
(** [connect t ~name cb] opens a local client session. [name] must be
    unique on this daemon. *)

val disconnect : t -> session -> unit
(** Leaves all joined groups (ordered through the ring, after any
    in-flight multicasts of this session — survivors see the leave
    notifications at a consistent point of the total order). Calling it
    again on the same session, or on a session the daemon cut
    ({!is_cut}), is an idempotent no-op. *)

val session_member_name : t -> session -> string
(** The canonical ["#name#daemon"] identity of the session. *)

(** {2 Slow receivers}

    A production daemon cannot let one stalled client stall the ordered
    delivery stream for everyone (head-of-line isolation). Marking a
    session a slow receiver decouples its drain rate from the daemon:
    delivered messages park in a per-session inbox in delivery order,
    and the client pulls them with {!pump} at whatever pace it manages.
    The daemon's routing work — and the per-delivery CPU charge the
    runtime accounts — is unchanged, so healthy sessions on the same
    daemon observe identical delivery timing.

    The inbox parks no copy and no view. A parked message is two
    unboxed slots of a ring: the delivered frame, shared with every
    other inbox and session the delivery reaches, and one int holding
    the App entry's offset in that frame and its service. {!pump} reads
    the entry again from the frame, through the daemon's name table,
    and builds the payload view it hands to [on_message] then. The
    frame stays valid however long it waits, after the engine has
    dropped the message it came in. Beyond its frame, a parked message
    costs 16 B of ring, and up to 32 B while the ring, which doubles
    when full, is half empty.

    An inbox is bounded. Each parked message charges its session the
    encoded size of its own entry, not the length of the frame that
    carries it: a Batch whose k entries all park charges its bytes once
    (less its 5 B header), not k times, and {!pump} gives each entry's
    size back as it hands the entry over. A delivery whose park would
    take the charge past {!slow_inbox_limit_bytes} ends the session
    instead, as a Spread
    daemon cuts off a client that falls too far behind: its Leave for
    every joined group is ordered through the ring, its backlog is
    dropped unread, and it leaves the daemon, so the name is free to
    connect again. The cut is recorded ({!Aring_obs.Flight.ev_session_cut})
    and counted ([sessions_cut]). The client sees it through {!is_cut};
    {!pump} on the cut session returns 0 and {!disconnect} does nothing.
    Every other session keeps its delivery, and the cut session's
    multicasts already ordered are delivered and applied as usual. So
    one session keeps at most the limit in parked entries alive, plus
    32 B of ring per parked message; a frame of which it parks only
    some entries is kept alive whole. *)

val slow_inbox_limit_bytes : int
(** 256 KiB: the entry bytes one slow session may hold parked. It is
    about a thousand of the production workload's ~240 B KV write
    entries, an eighth of a second of the ~8,500 writes/s its ring
    orders: a client that pauses briefly is never cut, and one that
    drains at a fixed rate below the ring's is cut and reconnects
    instead of growing the daemon for as long as it lags. A fixed
    constant, like the ring's own windows: a deployment sizes it to
    its memory and its clients' pauses. *)

val set_slow_receiver : t -> session -> bool -> unit
(** [set_slow_receiver t s true] installs the inbox (idempotent);
    [false] delivers anything still parked via [on_message], in order,
    and reverts to direct delivery. *)

val pump : t -> session -> max:int -> int
(** [pump t s ~max] delivers up to [max] parked messages through the
    session's [on_message], front (oldest) first; returns how many were
    delivered. 0 for sessions not in slow-receiver mode, and for a cut
    one. *)

val inbox_depth : t -> session -> int
(** Messages currently parked; 0 for direct-delivery sessions. *)

val inbox_bytes : t -> session -> int
(** The entry bytes charged for the parked messages (each its own
    encoded size), never more than {!slow_inbox_limit_bytes}; 0 for
    direct-delivery sessions. *)

val is_cut : t -> session -> bool
(** The daemon ended this session at the inbox limit. The session is
    closed: a client reconnects with {!connect}, under the same name or
    another, and joins its groups again. *)

val join : t -> session -> string -> unit
(** Ordered group join; takes effect when its envelope is delivered. *)

val leave : t -> session -> string -> unit
(** Ordered group leave. Leaving a group the session is not a member of
    is an idempotent no-op (nothing rides the ring). *)

val multicast_write :
  t ->
  session ->
  ?service:Types.service ->
  groups:string list ->
  (Codec.scratch -> 'a -> unit) ->
  'a ->
  unit
(** [multicast_write t s ~groups write x] multicasts the payload [write]
    puts for [x], written once, in place, into the frame the daemon
    submits ({!Envelope.write_app}): the same traffic as {!multicast} of
    [Codec.encode_exact write x], with no payload bytes built first.
    Every submission takes this path; {!multicast} is its caller with a
    bytes payload. If [write] raises, nothing is submitted and the
    exception is passed on. *)

val multicast :
  t -> session -> ?service:Types.service -> groups:string list -> bytes -> unit
(** Multi-group multicast: delivered exactly once to every member of the
    union of [groups], at the same point of the total order everywhere.
    Open-group semantics: the sender need not be a member.

    Local delivery uses {e union routing}: an envelope reaches a local
    session when the group is in the session's own joined set ({e from
    the local [join] call onward} — a rejoining session never misses a
    message ordered between a view change and its re-announced Join) or
    when the session's member name is in the delivered group table
    ({e until its ordered Leave lands}). Within one regular
    configuration, every daemon therefore hands the same per-group
    envelope stream to each member session — the property the
    replicated-KV layer's "equal op streams per view" argument rests on
    (see {!Aring_app.Kv}). The table half is matched by session name, so
    a session reconnected under a name still receives what is ordered
    before its predecessor's Leave lands.

    Local recipients are handed the envelope in session-name order, once
    each however many of [groups] they are in; the runtime is returned
    one {!Participant.Deliver} per recipient (one in all when there is
    none), which is what the simulator charges delivery CPU for. *)

val group_members : t -> string -> string list
(** This daemon's current view of a group, sorted. *)

val stats : t -> stats

val record_metrics : ?prefix:string -> t -> Aring_obs.Metrics.t -> unit
(** Export the daemon counters (and the underlying engine's, when
    operational) into a metrics registry under ["daemon.*"] /
    ["engine.*"] names, optionally prefixed (e.g. ["ring1."] for
    per-ring registries). *)
