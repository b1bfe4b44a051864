(** Fixed-sequencer total-order multicast baseline (JGroups-style).

    The related-work comparison in Section V measures a sequencer-based
    total ordering protocol (JGroups) on the same clusters. This module
    implements the classic fixed-sequencer scheme behind the same
    {!Aring_ring.Participant} interface the ring protocols use, so the
    experiment harness can run it unchanged:

    - a sender unicasts its message to the sequencer;
    - the sequencer assigns the next sequence number and multicasts the
      message to everyone;
    - receivers deliver in sequence order, detect gaps, and NACK the
      sequencer, which re-sends from its history buffer.

    Wire mapping (reusing the base formats): submissions and ordered
    messages are [Data] messages (a submission has [seq = 0]); a NACK is a
    [Token] whose [rtr] lists the missing sequence numbers and whose
    [aru_id] identifies the requester.

    Compared to the ring protocols, the sequencer provides no Safe
    (stability) service and no flow control — matching the weaker
    guarantees the paper points out for sequencer systems. The history
    buffer retains the most recent 200,000 messages. *)

open Aring_wire
open Aring_ring

type Participant.timer += Gap_check

type t

val create : me:Types.pid -> n:int -> t
(** [create ~me ~n] is participant [me] of an [n]-process group whose
    sequencer is process 0. *)

val participant : t -> Participant.t

val nacks_sent : t -> int
