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
      members, O(m) to build the sorted member list, and a walk of the
      group's r index entries with one [on_group_view] per local member
      in the table;
    - a delivered single-group App envelope costs O(r), one
      [on_message] (or inbox push) per recipient, and no sort; an
      envelope naming k groups first merges their k indexes;
    - a configuration change rebuilds the index of each group it prunes,
      O(m) for that group. *)

open Aring_wire
open Aring_ring

type t
type session

type callbacks = {
  on_message :
    sender:string -> groups:string list -> Types.service -> bytes -> unit;
      (** Invoked once per delivered application message addressed to a
          group this session belongs to (multi-group sends arrive once). *)
  on_group_view : group:string -> members:string list -> unit;
      (** Invoked when the delivered membership of a group changes, for
          each local session the delivered table names in that group;
          [members] is sorted. One change notifies its local sessions in
          session-name order, the order deliveries use too. *)
}

type stats = {
  mutable client_deliveries : int;
  mutable group_notifications : int;
  mutable packs_sent : int;  (** Batch envelopes multicast. *)
  mutable envelopes_packed : int;  (** Envelopes carried inside batches. *)
}

val create : ?packing:bool -> ?pack_threshold:int -> member:Member.t -> unit -> t
(** Build a daemon on a ring participant; drive the returned
    {!participant} with a runtime (simulator or UDP loop).

    With [~packing:true] (default false), small client envelopes are
    packed into a single protocol packet of at most [pack_threshold]
    bytes (default 1300) — Spread's packing feature for amortizing
    per-packet costs over small messages. Submissions accumulated between
    runtime events are flushed together at the next event; packing trades
    a little latency for large small-message throughput gains. *)

val flush : t -> unit
(** Force out any buffered packed submissions now. *)

val participant : t -> Participant.t

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
    again on the same session is an idempotent no-op. *)

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
    daemon observe identical delivery timing. *)

val set_slow_receiver : t -> session -> bool -> unit
(** [set_slow_receiver t s true] installs the inbox (idempotent);
    [false] delivers anything still parked via [on_message], in order,
    and reverts to direct delivery. *)

val pump : t -> session -> max:int -> int
(** [pump t s ~max] delivers up to [max] parked messages through the
    session's [on_message], front (oldest) first; returns how many were
    delivered. 0 for sessions not in slow-receiver mode. *)

val inbox_depth : t -> session -> int
(** Messages currently parked; 0 for direct-delivery sessions. *)

val join : t -> session -> string -> unit
(** Ordered group join; takes effect when its envelope is delivered. *)

val leave : t -> session -> string -> unit
(** Ordered group leave. Leaving a group the session is not a member of
    is an idempotent no-op (nothing rides the ring). *)

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
