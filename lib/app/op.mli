(** Replicated-KV operation codec.

    Every state-changing or protocol-relevant KV operation is one [Op.t],
    encoded as the {e payload} of an ordinary daemon application multicast
    ({!Aring_daemon.Envelope.App}) — an opaque client payload as far as
    the wire format is concerned. Nothing below the daemon layer changes;
    golden frames stay byte-identical.

    Operations split into three families:

    - client writes ([Put]/[Del]/[Cas]) — the replicated op log, submitted
      with Agreed delivery;
    - [Sync_read] markers — Safe-ordered read fences served by the
      issuing replica when the marker is delivered;
    - state-transfer protocol messages ([Hello]/[Chunk]) — the
      view-synchronous snapshot exchange (see {!Kv}). *)

open Aring_wire

(** One ring's share of a cross-shard multi-key cas ({!Mcas}): the checks
    and writes whose keys hash to ring [mp_ring]. Every involved ring
    orders an identical copy of the whole op; each ring's replicas vote
    on (and, on commit, apply) only their own part. *)
type mcas_part = {
  mp_ring : int;
  mp_checks : (string * string option) list;
  mp_writes : (string * string) list;
}

type t =
  | Put of { key : string; value : string }
  | Del of { key : string }
  | Cas of { key : string; expect : string option; value : string }
      (** Compare-and-set: applies [value] iff the current value of [key]
          equals [expect] ([None] = key absent). Deterministic at every
          replica because it executes at the op's total-order position. *)
  | Sync_read of { reader : string; nonce : int; key : string }
      (** Safe-delivered read fence. Served only by the replica whose
          session member name is [reader], when the marker is delivered —
          i.e. after every write stably ordered before it. *)
  | Hello of {
      view : Types.ring_id;
      daemon : Types.pid;
      applied : int;
      digest : int64;
      synced : bool;
    }
      (** Per-view state announcement. Every replica multicasts one after
          each regular configuration; when Hellos from all view members
          have been delivered, every replica runs the same deterministic
          donor election at the same point of the total order. *)
  | Chunk of {
      view : Types.ring_id;
      donor : Types.pid;
      index : int;
      total : int;
      applied : int;
      entries : (string * string) list;
    }
      (** One slice of the donor's snapshot (entries sorted by key across
          the whole stream; [applied] is the donor's op count at the
          snapshot point). *)
  | Mcas of { id : string; parts : mcas_part list }
      (** Cross-shard multi-key cas: an identical copy is multicast on
          every involved ring; each ring's replicas deterministically
          vote on their part's checks at the copy's delivery position,
          and a per-node coordinator resolves commit/abort once every
          involved ring has voted (see {!Kv} and [Aring_multiring]).
          [id] must be globally unique; retried copies dedup on it. *)
  | Mdecide of { id : string; commit : bool }
      (** Sequenced outcome of an {!Mcas}: multicast by a coordinator on
          every involved ring once all votes are known, so each replica
          resolves the park at one deterministic position of its ring's
          op stream. Dedups on [id]. *)
  | Skip of { upto : int }
      (** An otherwise-idle ring's log entry (Ring-Paxos-style skip,
          naming a position): gated and ordered like a write, it moves
          the replica's op-log position up to [upto] if the replica is
          behind, and does nothing otherwise. The positions it passes
          hold no op, so a learner merge can sort other rings' items
          after them (see [Aring_multiring.Merge]). *)
  | Mcas_table of {
      view : Types.ring_id;
      donor : Types.pid;
      entries : (string * int) list;
      parked : bytes list;
    }
      (** The donor's mcas vote/decision table ([id -> status code]) and
          parked-op state ([parked] = encoded ops: the undecided [Mcas]
          head, then every op queued behind it), streamed ahead of the
          snapshot chunks (only when non-empty) so a receiver dedups
          retried [Mcas] copies and reconstructs the donor's park instead
          of silently dropping an undecided cross-shard cas. *)

val write : Codec.scratch -> t -> unit
(** Append the op's encoding to a scratch. The KV write path passes it
    to [Aring_daemon.Daemon.multicast_write], so an op is written once,
    straight into the frame the daemon submits. *)

val encode : t -> bytes
(** Exact-size encoding, written through the shared scratch
    ({!Aring_wire.Codec.encode_exact}): the bytes {!write} puts. *)

val decode : bytes -> t
(** @raise Aring_wire.Codec.Decode_error on malformed input. *)

val decode_from : Codec.decoder -> t
(** Decode the op that fills the rest of the cursor's slice, e.g. one
    re-pointed at a delivered payload view with
    {!Aring_wire.Codec.decoder_reset_view}: only the op's own strings
    are copied out.
    @raise Aring_wire.Codec.Decode_error on malformed input, or if the
    op does not end exactly at the end of the slice. *)

val starts_write : Codec.decoder -> bool
(** Whether the cursor's slice starts with the tag of a [Put], [Del] or
    [Cas]. Reads without moving the cursor; false on an empty slice. *)

val matches : Codec.decoder -> t -> bool
(** [matches d op] is [decode_from d = op] for a [Put], [Del] or [Cas]
    [op], computed in place: it checks the tag, compares each string
    field byte for byte and checks that the op ends exactly at the end
    of the slice. It allocates nothing, never raises (malformed input is
    [false]) and does not move the cursor, so a caller can still
    {!decode_from} it. Every other op is [false]: only those three hold
    nothing but strings, so only their encoding round-trips exactly. *)

val pp : Format.formatter -> t -> unit
