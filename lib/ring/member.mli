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
    - {e Recover}: on pass 2 (the representative: when pass 2 returns)
      every member builds the new ring's node, and the representative
      starts its regular token. Survivors of each old ring re-send, as
      new-ring data of the {!Types.Recovered} service, the old-ring
      messages that some survivor may be missing — every message between
      the survivors' minimum aru and maximum known sequence. Each is sent
      once, by its designated holder (the highest-pid survivor sure to
      hold it, computed identically by everyone from the commit token's
      member infos); above every survivor's aru, by its sender if it
      survives, else by each survivor holding it. They ride the token
      like any other message: its window and [fcc] pace them, its [rtr]
      repairs a lost one, and a lost token is the loss timeout's, as in
      [Operational]. A recovering member forwards the token ahead of its
      visit's data, so a burst cannot overfill a switch port ahead of
      it. Client messages wait for the install.

    {b Installation.} A member installs at the second successive token
    visit that is quiet: it has nothing left to send, and the token
    shows [fcc = 0], [aru = seq] and an empty [rtr]. Two in a row prove
    that every member holds every recovery message and none is left to
    send. It keeps the node it runs, and submits client messages only
    after that visit, so all members install within one rotation.

    {b EVS delivery at installation.} Each member delivers, in order: the
    {e transitional configuration} (survivors of its old ring), the
    old-ring messages it has not yet delivered (in sequence order — by
    the install all survivors hold the same set, so all deliver the same
    messages in the same order), and finally the new {e regular
    configuration}. Client messages not yet sequenced carry over into the
    new configuration automatically.

    {b Timers.} A membership key names its one pending timer
    ({!Participant.Arm_timer}). Every phase change returns the disarms of
    all four membership keys ahead of the new phase's arms, and leaving
    [Operational] or [Recover] also disarms the node's two engine keys
    ({!Node.disarm_timers}), so no runtime fires a timer that a past
    phase armed. *)

open Aring_wire

type memb_timer_kind =
  | Join_retransmit
  | Consensus_timeout
  | Formation_timeout
  | Merge_probe

type Participant.timer +=
  | Memb_timer of memb_timer_kind
        (** Membership timers, one key per kind. The operational node's
            timers reach the runtime as they are ({!Node.Engine_timer},
            so each token visit supersedes the last one's) and come back
            through the participant's [fire_timer] to the node. The
            loss timer's fire is also the member's: once the node has
            recorded the loss, the member leaves [Operational] (or
            [Recover]) for Gather. *)

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
