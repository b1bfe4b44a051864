(** Deterministic round-robin learner merge over M ring streams
    (Multi-Ring Paxos, with Ring-Paxos-style skips).

    A learner subscribed to several rings feeds each ring's agreed
    deliveries ({!push_item}) and idle-period liveness hints
    ({!push_skip}) into one {!t}; {!drain} emits the merged total order.
    The merge visits rings strictly round-robin: the cursor ring's front
    element either emits (an item), cedes the turn (one unit of a skip),
    or blocks the merge (nothing there — the ring must speak before
    anything can sort after its silence).

    The merged order is a {e pure function of the per-ring input
    sequences}: skip units are consumed in queue position, never folded
    past items pushed later, so any real-time interleaving of pushes and
    drains yields the same output (the property [test/test_multiring.ml]
    checks by qcheck). With one ring the merge is the identity stream —
    skips are transparent.

    Each ring's sequence is held in one lane, a circular buffer that
    doubles when full: once the lanes have grown to the backlog,
    {!push_item}, {!push_skip} and {!drain} allocate nothing. A taken
    slot keeps nothing alive — an emitted item is reachable only through
    what the caller kept of it. *)

type 'a input =
  | Item of 'a  (** One agreed delivery of the ring. *)
  | Skip of int
      (** Cede the next [k] of this ring's merge turns ([k <= 0] is
          dropped). *)

type 'a t

val create : rings:int -> 'a t
(** @raise Invalid_argument if [rings < 1]. *)

val push_item : 'a t -> ring:int -> 'a -> unit
(** Append an item to ring [ring]'s input sequence (FIFO).
    @raise Invalid_argument if [ring] is out of range. *)

val push_skip : 'a t -> ring:int -> int -> unit
(** [push_skip t ~ring k] appends a skip block ceding ring [ring]'s next
    [k] merge turns; [k <= 0] is dropped.
    @raise Invalid_argument if [ring] is out of range. *)

val drain : 'a t -> (int -> 'a -> unit) -> unit
(** [drain t f] calls [f ring x] for each element of the merged order
    the merge can reach, in order, and returns when it is blocked:
    either no ring holds an item, or the cursor reaches a ring that is
    empty with no skip credit before any item can emit. Blocked is not
    final — push more and drain again. [f] may push into [t]; the
    element is taken before [f] runs, and the drain goes on with
    whatever [f] pushed. *)

val push : 'a t -> ring:int -> 'a input -> unit
(** {!push_item} or {!push_skip}. *)

val pop_all : 'a t -> (int * 'a) list
(** {!drain} into a list. *)

val rings : 'a t -> int

val emitted : 'a t -> int
(** Total items emitted so far — equal at any two learners that fed the
    same per-ring sequences and drained. *)

val credits_spent : 'a t -> int
(** Skip units consumed so far. *)

val pending : 'a t -> ring:int -> int
(** Items pushed for [ring] not yet emitted. *)

val unspent_credits : 'a t -> ring:int -> int
(** Skip units pushed for [ring] not yet consumed — queued blocks plus
    the remainder of a partially-consumed front block. Skip generators
    use it to stop granting while a ring's silence is already covered:
    every queued unit is a merge turn the ring's {e next item} must wait
    out, so unbounded grants during a long idle period would stall the
    ring's stream for thousands of rotations after it wakes. *)
