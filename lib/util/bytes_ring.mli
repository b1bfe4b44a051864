(** A FIFO of (bytes, int) pairs in two unboxed, power-of-two arrays,
    used where a queue entry is a buffer and one packed int: the
    engine's pending submissions (payload; submit stamp and service
    tag) and a slow receiver's inbox (delivered frame; entry offset and
    service tag).

    A push or pop allocates nothing once the ring has grown: there is no
    record, cell or option per entry. A full ring doubles (16 slots at
    least), unrolled from its head. A dropped entry's slot is cleared, so
    the ring keeps no popped buffer alive. *)

type t

val create : unit -> t
(** An empty ring; its arrays are allocated at the first push. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> bytes -> int -> unit
(** [push q b i] appends the pair [(b, i)] at the back. *)

val front_bytes : t -> bytes
(** The oldest pair's buffer. Raises [Invalid_argument] when empty. *)

val front_int : t -> int
(** The oldest pair's int. Raises [Invalid_argument] when empty. *)

val drop : t -> unit
(** Remove the oldest pair (read it first); nothing when empty. *)

val clear : t -> unit
(** Remove every pair, keeping the arrays for the next pushes. *)
