(** End-to-end consistency oracle for the replicated KV store.

    The oracle shadows every replica from its {!Kv.observation} feed: it
    re-executes each applied op against a shadow store and cross-checks
    the replica's reported ground truth. Because the shadow is rebuilt
    from the same totally-ordered op log the replica claims to have
    executed, any skipped, duplicated or misapplied op surfaces at the
    first write that touches the damaged state — not just at the end of
    the run.

    Checked properties, per replica:
    - {b state fidelity}: the store value reported after each apply
      equals the shadow's ([Stale_state] — catches skipped applies
      immediately);
    - {b op-log contiguity}: apply indices advance by exactly one,
      modulo skips, snapshot installs and cold resets ([Apply_gap]);
    - {b read correctness}: a read served at token T returns the shadow
      value of the T-prefix ([Stale_read]) — subsumes read-your-writes
      for ops the replica has applied;
    - {b monotonic reads}: consistency tokens never move backward
      between snapshot installs ([Non_monotonic_read]); a snapshot
      install re-bases the token (the EVS merge edge where a frozen
      minority replica adopts the donor's shorter-but-authoritative
      log).

    Across the ring's replicas, as they apply:
    - {b one op per position}: a replica that applies op-log position
      p applies the op a majority of the attached replicas applied
      there ([Log_divergence]) — catches a replica applying ops on a
      state that missed positions the rest filled. An op fewer have
      applied is not judged: an agreed op delivered by a member cut off
      from its view before the rest received it loses its position that
      way, and the member's install later erases it — a known
      limitation of agreed delivery.

    And across replicas at end of run ({!check_convergence}):
    - every replica synced ([Unsynced]);
    - all (applied, digest) pairs equal and every store byte-identical
      to its shadow ([Divergence]). *)

open Aring_wire

type t

type violation_kind =
  | Stale_state
  | Stale_read
  | Non_monotonic_read
  | Apply_gap
  | Divergence
  | Unsynced
  | Log_divergence
  | Merge_order

type violation = {
  o_node : Types.pid;
  o_kind : violation_kind;
  o_detail : string;
}

val create : unit -> t
(** Keeps the first 100 structured records; all are counted. *)

val attach : t -> Kv.t -> unit
(** Register as an observer of [kv] and remember it for
    {!check_convergence}. *)

val observe : t -> node:Types.pid -> Kv.observation -> unit
(** Feed one observation directly (unit tests; {!attach} does this
    automatically). With no replica attached, any one replica's op at a
    position is the majority's. *)

val check_convergence : t -> Kv.t list -> unit
(** End-of-run check over the replicas expected to have converged
    (typically the survivors): records [Unsynced] / [Divergence]
    violations. *)

val check_merged : t -> node:Types.pid -> index:int -> turn:int -> expected:int -> unit
(** A learner merge emitted this ring's op-log position [index] at merge
    turn [turn]; the position sorts at [expected]. Records [Merge_order]
    when they differ: learners that agree on every position emit every
    common item in the same order. *)

val kind_label : violation_kind -> string
val violation_count : t -> int
val violations : t -> violation list
(** Recorded violations, oldest first. *)

val messages : t -> string list
val pp : Format.formatter -> t -> unit
