(** Indexed binary min-heap of int handles keyed by [(at, seq)].

    The event queue of both runtimes. {!add} hands out a handle, a small
    int below {!capacity} that the caller uses to index its own per-event
    data; it stays valid until {!pop_exn} returns it or {!remove} takes
    it, and a later {!add} reuses it. Entries are ordered by [at], then
    [seq], smallest first. Keys live in flat int arrays indexed by
    handle, and a handle→position array lets {!rekey} move a pending
    entry in place and {!remove} take it out, each in O(log n), so a
    re-armed or disarmed timer leaves no dead entry behind. Nothing
    allocates once the arrays have grown, and there is no comparison
    closure. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val capacity : t -> int
(** Every handle {!add} has returned is below [capacity h]. *)

val add : t -> at:int -> seq:int -> int
(** [add h ~at ~seq] inserts an entry keyed [(at, seq)] and returns its
    handle. *)

val rekey : t -> int -> at:int -> seq:int -> unit
(** [rekey h i ~at ~seq] moves pending handle [i] to the key [(at, seq)],
    earlier or later than its old one.
    @raise Invalid_argument if [i] is not pending. *)

val remove : t -> int -> unit
(** [remove h i] takes pending handle [i] out of the heap; like a popped
    handle, a later {!add} reuses it.
    @raise Invalid_argument if [i] is not pending. *)

val top_exn : t -> int
val top_at : t -> int
val top_seq : t -> int
(** The minimum entry's handle, [at] and [seq], left in place.
    @raise Invalid_argument if the heap is empty. *)

val pop_exn : t -> int
(** [pop_exn h] removes the minimum entry and returns its handle.
    @raise Invalid_argument if [h] is empty. *)
