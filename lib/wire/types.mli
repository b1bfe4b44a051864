(** Common protocol types shared by every message and every layer.

    Identifiers are plain integers: in the simulator they index nodes; in the
    UDP runtime they index the configured address list. Ring identifiers
    follow Totem: the pair of the representative's process id and a
    monotonically increasing ring sequence number, so every installed
    configuration is globally unique. *)

type pid = int
(** Process (protocol participant) identifier. *)

type seqno = int
(** Message sequence number — the position in the total order within one
    ring configuration. Sequence numbers start at 1; 0 means "none". *)

type round = int
(** Token round number: how many times the token has visited a participant
    since the ring was installed. *)

type ring_id = { rep : pid; ring_seq : int }
(** Unique identifier of an installed ring configuration. [rep] is the
    representative (smallest pid) of the membership; [ring_seq] increases
    with every installation attempt so re-formations are distinguishable. *)

val ring_id_equal : ring_id -> ring_id -> bool
val pp_ring_id : Format.formatter -> ring_id -> unit

type service =
  | Fifo  (** FIFO-by-sender delivery; delivered in total order here. *)
  | Causal  (** Causal delivery; subsumed by Agreed in a ring protocol. *)
  | Agreed  (** Same total order at all members; causality respected. *)
  | Safe
      (** Delivered only once every member of the configuration is known to
          have received the message (stability). *)
  | Recovered
      (** Recovery traffic, not a client's service: an old ring's message
          re-sent under a new ring's token while that ring recovers. Its
          payload is the old message's frame ({!Message.encode}). Ordered
          like {!Agreed}; the membership layer takes each delivery, so no
          application receives one. *)

val service_equal : service -> service -> bool

val service_requires_stability : service -> bool
(** [true] only for {!Safe}: delivery must wait for the aru line. *)

val service_to_string : service -> string
