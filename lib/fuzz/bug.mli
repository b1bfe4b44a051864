(** Intentional protocol bugs, injected at the participant boundary.

    The fuzzer is itself tested by seeding a known invariant violation
    and checking the campaign finds and shrinks it. A bug is a wrapper
    over {!Aring_ring.Participant.t} that tampers with the action stream
    the real protocol emits — the protocol code is untouched. *)

type t =
  | Clean  (** No tampering. *)
  | Skip_delivery of { node : int; every : int }
      (** Silently drop every [every]-th application delivery at [node]:
          a direct gap in that node's delivered sequence, caught by the
          trace checker's gap-free invariant. *)
  | Skip_retransmission
      (** Suppress every retransmitted data multicast at every node (a
          multicast whose sequence number is not above the highest that
          node has multicast in the ring so far). Any message actually
          lost on the wire then stays lost, stalling its losers — caught
          by the liveness (probe-convergence) check. *)
  | Kv_skip_apply of { node : int; every : int }
      (** Application-layer bug: the KV replica at [node] (on every ring)
          skips the store mutation of every [every]-th write while still
          consuming the op slot — a stale-state / skipped-apply defect
          caught by the end-to-end consistency oracle ({!Aring_app.Oracle}), not by the
          protocol checker. {!wrap} is the identity for it. *)
  | Kv_apply_before_election
      (** Every KV replica plants
          {!Aring_app.Kv.Bug_apply_before_election}, caught by the
          oracle's one-op-per-position check. {!wrap} is the identity for
          it. *)
  | Merge_no_seek
      (** Learner bug: a snapshot install leaves the learner merge where
          it was, so the learner sorts the ring's later items at the
          wrong turns — caught by the oracle's merge-order check. {!wrap}
          is the identity for it. *)
  | Recovery_flood
      (** Drop every recovery-marked data multicast
          ({!Aring_wire.Types.Recovered}) a member sends, at every node,
          retransmissions included: no old-ring message a survivor misses
          ever reaches it. Whenever one is missing, the new ring's token
          keeps asking for it and no member installs — a stall in
          Recover, caught by the health watchdog judge. *)

val label : t -> string
val of_string : string -> (t, string) result
(** ["clean"], ["skip-delivery"], ["skip-retransmission"],
    ["kv-skip-apply"], ["kv-apply-before-election"], ["merge-no-seek"]
    or ["recovery-flood"]. *)

val needs_kv : t -> bool
(** The bug plants in the KV replica or the learner merge, so only a
    KV schedule can host it. *)

val wrap : t -> node:int -> Aring_ring.Participant.t -> Aring_ring.Participant.t
