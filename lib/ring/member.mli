(** Membership-capable protocol participant: the full Accelerated Ring stack.

    [Member] wraps the operational {!Node} with a Totem-style membership
    algorithm and Extended Virtual Synchrony (EVS) configuration delivery.
    The paper uses the membership algorithm of Spread/Totem unchanged
    (Section II); this is a from-scratch implementation of its essential
    structure:

    {b States.}
    - {e Operational}: the ordering protocol runs; the ring's
      representative periodically multicasts a presence probe so healed
      partitions discover each other.
    - {e Gather}: entered on token loss, on receiving a join, or on
      foreign-ring traffic. Members multicast join messages carrying their
      proposed process set and fail set, and merge what they hear until
      every live proposed member advertises identical sets (consensus).
      A consensus timeout declares silent processes failed; a member alone
      at the timeout forms a singleton ring.
    - {e Commit}: the new ring's representative circulates a commit token
      around the proposed ring; pass 1 collects each member's old-ring
      state (ring id, aru, highest sequence), pass 2 spreads the complete
      picture to everyone.
    - {e Recover}: survivors of each old ring multicast ("flood") the
      old-ring messages that some survivor may be missing — every message
      between the survivors' minimum aru and maximum known sequence. The
      flood is {e deduplicated} (per sequence number only its designated
      holder — the highest-pid survivor holding it, computed identically
      by everyone from the commit token's member infos — sends it) and
      {e paced} (bursts of {!recovery_burst_msgs} spaced 400 µs apart,
      the first burst staggered by ring position, so a small switch
      buffer drains between bursts). Two
      further commit-token passes (3 and 4) confirm that every member
      finished the exchange; pass 4 installs the new configuration.

    {b EVS delivery at installation.} Each member delivers, in order: the
    {e transitional configuration} (survivors of its old ring), the
    remaining old-ring messages recovered by the exchange (in sequence
    order — after the exchange all survivors hold the same set, so all
    deliver the same messages in the same order), and finally the new
    {e regular configuration}. Client messages not yet sequenced carry over
    into the new configuration automatically.

    {b Exchange retransmission} (DESIGN.md §5f): recovery floods are plain
    multicasts, so packet loss during the exchange is expected. A member
    holding the pass-4 commit token with advertised messages still missing
    multicasts a cumulative nack — its missing sequence numbers as
    compacted ranges, carried on the commit channel as a sentinel pass 5 —
    and the designated holder re-floods them through its paced queue; the
    k-th nack for a sequence number is answered by the k-th candidate
    holder, rotating past crashed donors. Only after repeated nacks go
    unanswered does the member give up and re-gather.

    {b Flood across install.} A member installs as soon as its exchange is
    complete, even with its own paced queue still draining: the same flood
    state (exchange table, queue, nack counts) moves into the operational
    phase, where it keeps bursting and answering pass-5 nacks for peers
    still recovering the old ring. Once its queue has stayed empty for one
    formation timeout ([consensus_timeout_ns]) the member drops it; a
    later nack gets no answer, and the straggler's own formation timeout
    re-gathers it. Leaving the operational phase drops it too.

    {b Timers.} A membership key names its one pending timer
    ({!Participant.Arm_timer}). Every phase change returns the disarms of
    all six membership keys ahead of the new phase's arms, and leaving
    the operational phase also disarms the node's two engine keys
    ({!Node.disarm_timers}), so no runtime fires a timer that a past
    phase armed. *)

open Aring_wire

type memb_timer_kind =
  | Join_retransmit
  | Consensus_timeout
  | Formation_timeout
  | Merge_probe
  | Exchange_recheck
      (** Re-examine a held-back pass-4 commit once late recovery floods
          have had a chance to arrive; requests retransmission of whatever
          is still missing. *)
  | Flood_burst
      (** Send the next paced burst from the recovery flood queue, in
          recovery or after the install; after the install, with the
          queue empty, it times the quiet interval that drops the flood. *)

type Participant.timer +=
  | Memb_timer of memb_timer_kind
        (** Membership timers, one key per kind. The operational node's
            timers reach the runtime as they are ({!Node.Engine_timer},
            so each token visit supersedes the last one's) and come back
            through the participant's [fire_timer] to the node. The
            loss timer's fire is also the member's: once the node has
            recorded the loss, the member leaves [Operational] for
            Gather. *)

type t

val create :
  params:Params.t ->
  me:Types.pid ->
  ?initial_ring:Types.pid array ->
  unit ->
  t
(** [create ~params ~me ()] is a participant that starts alone and finds
    peers through the membership algorithm. With [?initial_ring] it starts
    directly operational in that pre-agreed configuration (ring_seq 1) —
    the usual production bootstrap where all daemons share a config file. *)

val recovery_burst_msgs : int
(** The most recovery-flood messages one paced burst multicasts (8).
    Bursts are 400 µs apart. *)

val participant : t -> Participant.t
(** The uniform runtime interface (see {!Participant}). *)

val submit : t -> Types.service -> bytes -> unit
(** Submit a client message. Messages submitted while no configuration is
    installed — during a membership change, or before the participant's
    [start] — are buffered and sequenced in the next configuration: with
    [?initial_ring], a submission before [start] is sequenced in that
    first ring. *)

(** {2 Introspection} *)

val me : t -> Types.pid

val state_name : t -> string
(** ["operational"], ["gather"], ["commit"] or ["recover"]. *)

val current_view : t -> Participant.view option
(** The last regular configuration delivered, if any. *)

val node : t -> Node.t option
(** The operational node, when in the operational state. *)

val installs : t -> int
(** Number of configurations installed so far. *)

val holds_residual_flood : t -> bool
(** Whether the member, operational, still holds its last recovery
    exchange's flood to answer nacks from: from the install until the
    flood has been quiet for one formation timeout. *)
