(** Ring Paxos baseline (Marandi et al., DSN 2010), simplified.

    The paper's related-work section measures (U-)Ring Paxos on the same
    clusters: ~750 Mbps at 1 Gbps with 1350-byte messages (batched), with
    a latency profile similar to the original Ring protocol's Safe
    delivery, and ~1.5 Gbps on 10 Gbps networks. This module implements
    the normal-case protocol behind the {!Aring_ring.Participant}
    interface so the same harness can measure it:

    - every process forwards its proposals to the {b coordinator};
    - the coordinator starts one consensus instance per message: it
      assigns the instance id and multicasts Phase 2a (the value) to all;
    - the {b acceptors} (a majority quorum arranged in a ring starting at
      the coordinator) pass a Phase 2b acknowledgement along the ring —
      each hop vouches for every instance it has accepted contiguously;
    - when the 2b acknowledgement completes the quorum, the last acceptor
      multicasts the {b decision}; learners (everyone) deliver instances
      in id order once both the value and the decision have arrived.

    Gap recovery is NACK-based against the coordinator, which retains a
    bounded history of the last 200,000 instances.

    Wire mapping (reusing the base formats; see DESIGN.md): a proposal is
    a [Data] with [d_round = 0]; Phase 2a is [Data] with [d_round = 1] and
    [seq] = instance; a decision is an empty-payload [Data] with
    [d_round = 2]; the 2b ring acknowledgement and NACKs are [Token]s
    ([aru] = highest contiguously accepted instance; [rtr] = missing
    instances, [aru_id] = requester).

    Matching the scope of the paper's comparison, this implements the
    failure-free fast path only (no coordinator re-election): it is a
    performance baseline, not a fault-tolerance substrate — the paper's
    point is precisely that Paxos-style systems need extra machinery for
    the semantics EVS gives natively. *)

open Aring_wire
open Aring_ring

type Participant.timer += Paxos_gap_check

type t

val create : me:Types.pid -> n:int -> t
(** [create ~me ~n] is process [me] of [n]; the coordinator is process 0
    and the acceptor quorum the first [n/2 + 1] processes. *)

val participant : t -> Participant.t

val decided_count : t -> int
(** Instances decided at the coordinator. *)
