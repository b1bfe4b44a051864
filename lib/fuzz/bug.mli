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
      (** Application-layer bug: the KV replica at [node] skips the store
          mutation of every [every]-th write while still consuming the op
          slot — a stale-state / skipped-apply defect caught by the
          end-to-end consistency oracle ({!Aring_app.Oracle}), not by the
          protocol checker. Only meaningful when the runner hosts the KV
          app; {!wrap} is the identity for it. *)
  | Recovery_flood
      (** Construction-time bug: build every member with
          [~legacy_flood:true], restoring the pre-overhaul recovery
          exchange (unpaced, undeduplicated, no retransmission). On
          schedules with near-MTU payloads and a small switch buffer this
          livelocks formation — caught by the health watchdog judge.
          {!wrap} is the identity for it. Only the bare single ring
          (no app, one ring) builds members this way, so
          {!Runner.run} rejects it anywhere else. *)

val label : t -> string
val of_string : string -> (t, string) result
(** ["clean"], ["skip-delivery"], ["skip-retransmission"],
    ["kv-skip-apply"] or ["recovery-flood"]. *)

val wrap : t -> node:int -> Aring_ring.Participant.t -> Aring_ring.Participant.t
