(** Binary encoding primitives for the wire format.

    All integers are encoded big-endian. The format favours simplicity over
    compactness: fixed 8-byte integers, 4-byte lengths. Decoding raises
    {!Decode_error} on malformed input rather than returning partial
    values, so a corrupted packet can be dropped whole (the system model
    assumes no corruption; this guards against bugs and truncation).

    Two write paths produce byte-identical output:

    - the original {!encoder} (a [Buffer.t]) — the {e reference}
      implementation, kept for clarity and as the oracle in golden and
      property tests;
    - the {!scratch} path — explicit-offset stores into a caller-owned,
      grow-in-place byte buffer. Once the buffer has grown to the working
      set's frame size, encoding allocates {e nothing}; this is the hot
      path used by the pooled message codec (see {!Aring_wire.Message.Pool}),
      by the daemon's submission frame, into which a client write such
      as a KV op is written once, nested in its envelope by {!put_sub}
      (see [Aring_daemon.Daemon]), and, through {!encode_exact}, by the
      application payload encoders ([Aring_app.Op.encode],
      [Aring_daemon.Envelope.encode]), which allocate only their
      exact-size result.

    On the read side, {!read_view} leaves a byte-string field in place as
    a read-only {!view}, so a payload nested in a frame is decoded where
    it lies instead of being copied out first. *)

exception Decode_error of string

(** {2 Explicit-offset primitives}

    Each [set_*] stores at [pos] in a caller-owned buffer and returns the
    position one past the written field. The caller is responsible for
    capacity ([Bytes.length buf]); these never grow the buffer. *)

val set_u8 : bytes -> int -> int -> int
val set_bool : bytes -> int -> bool -> int
val set_i32 : bytes -> int -> int -> int
(** [set_i32 buf pos n] requires [n] to fit in 32 signed bits. *)

val set_i64 : bytes -> int -> int -> int
val set_bytes : bytes -> int -> bytes -> int
(** Length-prefixed (4 bytes) byte string. *)

(** {2 Reusable scratch buffer}

    A {!scratch} owns a byte buffer that doubles in place on demand and is
    reused across encodes via {!scratch_reset} — steady-state writes are
    allocation-free. *)

type scratch

val scratch : ?initial_capacity:int -> unit -> scratch
val scratch_reset : scratch -> unit
(** Forget the contents; the backing buffer (and its capacity) is kept. *)

val scratch_truncate : scratch -> int -> unit
(** [scratch_truncate s n] keeps the first [n] bytes written and forgets
    the rest, e.g. a field whose write raised.
    @raise Invalid_argument unless [0 <= n <= scratch_length s]. *)

val scratch_length : scratch -> int
val scratch_buffer : scratch -> bytes
(** The backing buffer itself — valid up to {!scratch_length}, invalidated
    by the next write or reset. Zero-copy read access for sends. *)

val put_u8 : scratch -> int -> unit
val put_bool : scratch -> bool -> unit
val put_i32 : scratch -> int -> unit
val put_i64 : scratch -> int -> unit
val put_bytes : scratch -> bytes -> unit

val put_raw : scratch -> bytes -> unit
(** The bytes themselves, with no length prefix. *)

val put_sub : scratch -> (scratch -> 'a -> unit) -> 'a -> unit
(** [put_sub s write x] is a length-prefixed field holding what [write]
    puts for [x], written in place: the same bytes as
    [put_bytes s (encode_exact write x)], with no intermediate copy. *)

val put_list : scratch -> ('a -> unit) -> 'a list -> unit

val encode_exact : (scratch -> 'a -> unit) -> 'a -> bytes
(** [encode_exact write x] runs [write] on a scratch shared by every
    call, reset first, and returns an exact-size copy of what it wrote:
    warm, the copy is the only allocation. A nested call, or one from
    another thread or domain, gets a private scratch instead. *)

(** {2 Buffer-based reference encoder} *)

type encoder
(** Mutable output buffer. *)

val encoder : unit -> encoder
val to_bytes : encoder -> bytes

val write_u8 : encoder -> int -> unit
val write_bool : encoder -> bool -> unit
val write_i32 : encoder -> int -> unit
(** [write_i32 e n] requires [n] to fit in 32 signed bits. *)

val write_i64 : encoder -> int -> unit
val write_bytes : encoder -> bytes -> unit
(** Length-prefixed (4 bytes) byte string. *)

(** {2 Decoder} *)

type decoder
(** Read cursor over a byte-string slice. Reusable: {!decoder_reset}
    re-points an existing cursor without allocating, so a long-lived
    decoder (e.g. over a receive buffer) costs nothing per packet. *)

val decoder : bytes -> decoder
(** Cursor over the whole byte string. *)

val decoder_empty : unit -> decoder
(** An exhausted cursor, for later {!decoder_reset}. *)

val decoder_reset : decoder -> bytes -> pos:int -> len:int -> unit
(** Re-point [d] at the slice [\[pos, pos+len)] of [buf].
    @raise Invalid_argument if the slice is out of bounds. *)

val remaining : decoder -> int

val decoder_pos : decoder -> int
(** The offset in {!decoder_buffer} of the next byte to read. *)

val decoder_buffer : decoder -> bytes
(** The buffer the cursor reads, not a copy: read-only, like a {!view}'s.
    With {!decoder_pos} and {!skip_bytes} it lets a caller look a field
    up where it lies (e.g. in an intern table) instead of copying it. *)

val read_u8 : decoder -> int
val read_bool : decoder -> bool
val read_i32 : decoder -> int
val read_i64 : decoder -> int
val read_bytes : decoder -> bytes
val skip_bytes : decoder -> int
(** Skip a length-prefixed byte string and return its length; the field
    ends at {!decoder_pos}. Allocates nothing. *)

val read_count : decoder -> int
(** A list's element count, validated as {!read_list} does; the caller
    reads that many elements. *)

val read_list : decoder -> (unit -> 'a) -> 'a list
(** Elements are read in order. The count is validated against the bytes
    remaining (each element occupies at least one byte), so corrupted
    counts fail with {!Decode_error} instead of allocating. *)

val expect_end : decoder -> unit
(** [expect_end d] raises {!Decode_error} unless the input was fully
    consumed — every complete message must account for all its bytes. *)

(** {2 Read-only views}

    A {!view} is a slice (bytes, offset, length) of a buffer another
    value owns — typically a payload inside a delivered frame. Reading
    one copies nothing; the view keeps its buffer alive for as long as
    it is held. A view is read-only: nothing writes through it, and its
    holder copies it ({!view_to_bytes}) to keep a value it may mutate. *)

type view

val view : bytes -> pos:int -> len:int -> view
(** The slice [\[pos, pos+len)] of a buffer, not copied.
    @raise Invalid_argument if the slice is out of bounds. *)

val view_to_bytes : view -> bytes
(** A fresh, mutable copy of the viewed bytes. *)

val view_to_string : view -> string

val read_view : decoder -> view
(** Like {!read_bytes}, but the field is left in place: the result views
    the decoder's buffer. *)

val decoder_reset_view : decoder -> view -> unit
(** [decoder_reset_view d v] re-points [d] at exactly the bytes of [v],
    so a decode from it never reads past the view. *)
