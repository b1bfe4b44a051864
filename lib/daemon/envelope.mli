(** Daemon-level payload envelope.

    The Spread-like daemon rides on the ring's total order: every client
    operation that affects shared state (application multicasts, group joins
    and leaves, session re-announcements after a configuration change) is
    encoded as an envelope and multicast as an ordinary ring payload. All
    daemons therefore apply group-state updates in exactly the same order. *)

type 'payload env =
  | App of { sender : string; groups : string list; payload : 'payload }
      (** Application message to every member of each listed group
          (multi-group multicast: delivered once per recipient, ordered
          consistently across groups). *)
  | Join of { member : string; group : string }
  | Leave of { member : string; group : string }
  | Batch of 'payload env list
      (** Several small envelopes packed into one protocol packet — the
          packing feature Spread uses to amortize per-packet costs over
          small messages (paper Section IV-A.3). Never nested. *)

type t = bytes env
(** An envelope as built and encoded: App payloads are owned bytes. *)

type parsed = Aring_wire.Codec.view env
(** An envelope as delivered: each App payload is a read-only view into
    the delivered frame's payload, not a copy. *)

val encode : t -> bytes
(** Exact-size encoding, written through the shared scratch
    ({!Aring_wire.Codec.encode_exact}). *)

val parse : Aring_wire.Codec.decoder -> parsed
(** The envelope parser: reads the envelope that fills the rest of the
    cursor's slice, copying its names and leaving App payloads in place.
    @raise Aring_wire.Codec.Decode_error on malformed input, or if the
    envelope does not end exactly at the end of the slice. *)

val decode : bytes -> t
(** {!parse} over a whole byte string, with every App payload copied out
    — for tests and tools.
    @raise Aring_wire.Codec.Decode_error on malformed input. *)

val member_name : daemon:int -> session:string -> string
(** Canonical member name, Spread-style: ["#session#daemon"]. *)

val encoded_size : t -> int
(** Size of [encode t], computed from the field lengths without encoding
    (used by the packer to respect its threshold). *)

val pp : Format.formatter -> t -> unit
