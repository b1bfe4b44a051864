(** Daemon-level payload envelope.

    The Spread-like daemon rides on the ring's total order: every client
    operation that affects shared state (application multicasts, group joins
    and leaves, session re-announcements after a configuration change) is
    encoded as an envelope and multicast as an ordinary ring payload. All
    daemons therefore apply group-state updates in exactly the same order.

    Two write paths give the same bytes. {!encode} turns a built {!t}
    into its frame, the reference for tests and tools. A daemon instead
    writes each submission once, with {!write} and {!write_app}, into
    the frame it submits; an App payload is written there by its own
    writer (a KV op by [Aring_app.Op.write]), never encoded first, and
    {!batch} puts a Batch header in front of entries already written. *)

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

val write : Aring_wire.Codec.scratch -> t -> unit
(** Append the encoding of an envelope to a scratch: [encode t] is what
    it writes.
    @raise Invalid_argument on a nested batch. *)

val write_app :
  Aring_wire.Codec.scratch ->
  sender:string ->
  groups:string list ->
  (Aring_wire.Codec.scratch -> 'a -> unit) ->
  'a ->
  unit
(** [write_app s ~sender ~groups write x] appends an App envelope whose
    payload is what [write] puts for [x], written in place: the bytes of
    [write s (App { sender; groups; payload = Codec.encode_exact write x })]
    with no payload bytes built first. *)

val batch : bytes -> len:int -> count:int -> bytes
(** [batch entries ~len ~count] is the frame of a Batch of the [count]
    non-batch envelopes written back to back in [entries\[0, len)]:
    [encode (Batch l)] for the list [l] of them. A fresh, exact-size
    copy. *)

type names
(** A bounded table of the names parsed envelopes carry (senders,
    members, groups) and of App group lists, keyed by their encoded
    bytes. A daemon keeps one for its whole life. *)

val names : unit -> names

val names_cap : int
(** Entries a table holds, names and group lists together. Adding one
    past the cap empties it first, so its memory stays bounded however
    many distinct names go by. *)

val names_count : names -> int
(** Entries held now: at most {!names_cap}. *)

val check : Aring_wire.Codec.decoder -> unit
(** [check d] checks that the rest of the cursor's slice holds exactly
    one well-formed envelope and, when it does, leaves the cursor where
    it was. It reads no name and allocates nothing.
    @raise Aring_wire.Codec.Decode_error on malformed input (a Batch
    with any malformed entry included), or if the envelope does not end
    exactly at the end of the slice. *)

type 'a reader = {
  app :
    'a -> sender:string -> groups:string list -> Aring_wire.Codec.view -> 'a;
  join : 'a -> member:string -> group:string -> 'a;
  leave : 'a -> member:string -> group:string -> 'a;
}
(** What to do with each entry an envelope carries, threading an
    accumulator: the fields of a {!parsed} entry, handed over without
    the entry being built. *)

val read : names -> Aring_wire.Codec.decoder -> 'a reader -> 'a -> 'a
(** The envelope reader: [read names d r acc] reads the {!check}ed
    envelope that fills the rest of the cursor's slice and hands its
    entries, in order, to [r] (a Batch's entries one by one, never the
    Batch itself). App payloads are views left in place. Names and App
    group lists are read through the table, where the frame's bytes lie:
    a name or list seen before comes back as the shared (immutable)
    string or list the table holds, with nothing copied or allocated,
    and one not seen before is copied once and added. Check first: on
    input {!check} rejects, [read] raises
    [Aring_wire.Codec.Decode_error], possibly after handing [r] the
    entries before the fault. *)

val read_header : Aring_wire.Codec.decoder -> int
(** [read_header d] steps the cursor over a {!check}ed envelope's Batch
    header, if it has one, to its first entry, and returns how many
    entries follow: a Batch's count, or 1 for a single envelope. *)

val read_entry : names -> Aring_wire.Codec.decoder -> 'a reader -> 'a -> 'a
(** [read_entry names d r acc] reads the one non-batch entry at the
    cursor, as {!read} reads each: [read names d r acc] is [read_header]
    followed by that many [read_entry] calls. A cursor put back at the
    start of an entry of a {!check}ed frame (the position the cursor
    held before reading it) reads it again, with the same fields.
    @raise Aring_wire.Codec.Decode_error on an entry {!check} rejects. *)

val parse : names -> Aring_wire.Codec.decoder -> parsed
(** {!check}, then {!read} into a built envelope.
    @raise Aring_wire.Codec.Decode_error where {!check} does. *)

val decode : bytes -> t
(** {!parse} over a whole byte string with a fresh table, with every App
    payload copied out — for tests and tools.
    @raise Aring_wire.Codec.Decode_error on malformed input. *)

val member_name : daemon:int -> session:string -> string
(** Canonical member name, Spread-style: ["#session#daemon"]. *)

val encoded_size : t -> int
(** Size of [encode t], computed from the field lengths without encoding
    (tests use it to check the packer's threshold). *)

val pp : Format.formatter -> t -> unit
