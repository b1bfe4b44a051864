(** Wire messages of the Accelerated Ring protocol.

    Four message kinds travel on the network:

    - {b Data} messages carry application payloads plus the ordering
      metadata of Section III-B of the paper ([seq], [pid], [round]), the
      delivery service level, and a [post_token] flag recording whether the
      message was multicast after the sender released the token (used by
      priority-switching method 2, Section III-C).
    - {b Token} messages carry the ordering/flow-control state of Section
      III-A ([seq], [aru], [fcc], [rtr]) plus the aru-lowering memory
      ([aru_id]) and a per-hop [token_id] for duplicate suppression when the
      token is retransmitted after a suspected loss.
    - {b Join} messages drive the gather stage of the membership algorithm.
    - {b Commit} tokens circulate (twice) around a proposed new ring to
      commit a membership and spread each member's old-ring state.

    Recovery needs no message kind of its own: an old ring's message is
    re-sent as new-ring data of the {!Types.Recovered} service, whose
    payload is the old message's frame. The service byte carries the
    mark, so a data frame's header does not grow. *)

open Types

type data = {
  d_ring : ring_id;  (** Configuration this message belongs to. *)
  seq : seqno;  (** Position in the total order. *)
  pid : pid;  (** Initiating participant. *)
  d_round : round;  (** Token round in which the message was initiated. *)
  post_token : bool;  (** Sent during the post-token multicast phase? *)
  service : service;  (** Requested delivery service. *)
  payload : bytes;  (** Application data; opaque to the protocol. *)
}

type token = {
  t_ring : ring_id;
  token_id : int;
      (** Monotonic per-hop counter; lets a participant discard stale
          retransmitted tokens. *)
  t_round : round;  (** Rotation count since installation. *)
  t_seq : seqno;  (** Last sequence number claimed by any participant. *)
  aru : seqno;  (** All-received-up-to (stability floor candidate). *)
  aru_id : pid option;  (** Participant that last lowered [aru], if any. *)
  fcc : int;  (** Messages multicast during the last token round. *)
  rtr : seqno list;  (** Outstanding retransmission requests, ascending. *)
}

type join = {
  j_pid : pid;
  proc_set : pid list;  (** Processes the sender considers reachable. *)
  fail_set : pid list;  (** Processes the sender has declared failed. *)
  join_seq : int;  (** Gather attempt number (monotonic per process). *)
}

type member_info = {
  m_pid : pid;
  m_old_ring : ring_id;  (** Ring the member previously belonged to. *)
  m_aru : seqno;  (** Member's local aru in its old ring. *)
  m_high_seq : seqno;  (** Highest sequence the member saw in its old ring. *)
  m_high_delivered : seqno;  (** Highest sequence the member delivered. *)
}

type commit = {
  c_ring : ring_id;  (** Proposed new ring identifier. *)
  c_token_id : int;
  c_pass : int;
      (** 1: collect members' old-ring state; 2: spread it. A member
          handling pass 2 (the representative: when it returns) starts
          recovering on the new ring's regular token. *)
  c_memb : member_info list;  (** Proposed membership, in ring order. *)
}

type t =
  | Data of data
  | Token of token
  | Join of join
  | Commit of commit

val kind : t -> string
(** Short human-readable tag ("data", "token", "join", "commit"). *)

val encode : t -> bytes
(** [encode m] is the wire representation of [m] — the {e reference}
    encoder, built on [Buffer]. The pooled path below
    ({!Pool.encode_view}) produces byte-identical output (asserted by
    the golden-vector and property suites) while allocating nothing in
    steady state. *)

(** Pooled encode/decode for the hot paths (regular token and data).

    A pool owns one scratch encoder and one decoder cursor, reused across
    calls: encoding into the pool and decoding from a caller-owned receive
    buffer touch no [Buffer], no intermediate [bytes], and no fresh cursor
    records. Pools are not thread-safe; use one per runtime loop. *)
module Pool : sig
  type pool

  val create : ?initial_capacity:int -> unit -> pool

  val encode_view : pool -> t -> bytes * int
  (** [(buf, len)] — the pool-owned encoding of the message, valid until
      the next [encode_view] on this pool. The zero-allocation transmit
      path: hand [buf] up to [len] straight to [sendto]. *)

  val decode_sub : pool -> bytes -> pos:int -> len:int -> t
  (** Decode the message occupying [\[pos, pos+len)] of a caller-owned
      buffer (e.g. a socket receive buffer) without copying the slice.
      @raise Codec.Decode_error on malformed input. *)

  val decode : pool -> bytes -> t
  (** [decode_sub] over the whole byte string. *)
end

val decode : bytes -> t
(** [decode b] parses a wire message.
    @raise Codec.Decode_error on malformed input. *)

val decode_result : bytes -> (t, string) result
(** [decode_result b] is [decode] with the {!Codec.Decode_error} captured
    as [Error]. Any truncation or corruption of a valid encoding lands
    here — decoding never raises any other exception and never allocates
    proportionally to a corrupted length field. *)

val service_tag : Types.service -> int
(** The service's byte on the wire: 0 to 3 for a client's service, 4 for
    {!Types.Recovered}. *)

val service_of_tag : int -> Types.service
(** The service whose {!service_tag} is the argument.
    @raise Codec.Decode_error on any other int. *)

val header_overhead : int
(** Encoded size of a data message with an empty payload — used when
    accounting clean-payload vs on-wire throughput. *)

val data_wire_size : payload_len:int -> int
(** On-wire size of a data message with a [payload_len]-byte payload. *)

val wire_size : t -> int
(** [wire_size m] is [Bytes.length (encode m)], computed analytically —
    the simulator sizes packets without paying for encoding. *)

val pp : Format.formatter -> t -> unit
