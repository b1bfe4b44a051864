(** Deterministic learner merge over M ring streams, by position
    (the instance-number merge of Multi-Ring Paxos).

    Each ring's agreed stream is a sequence of {e units}: its items and
    the positions its skips pass over. Ring [r]'s unit [i] sorts at
    merge {e turn} [i * M + r]. A learner feeds each ring's items
    ({!push_item}, at the ring's next position) and the position the
    ring is known to have reached ({!seek}); {!drain} emits items in
    turn order and stops at the first turn whose unit is not yet known
    — the ring must speak before anything can sort after its silence.

    The merged order is therefore a {e pure function of the per-ring
    positions}: any real-time interleaving of pushes, seeks and drains
    yields the same output (the property [test/test_multiring.ml]
    checks by qcheck), and a learner that seeks past items it never saw
    emits the same suffix as one that saw every item. With one ring the
    merge is the identity stream.

    Each ring's items are held in one lane, a circular buffer that
    doubles when full: once the lanes have grown to the backlog,
    {!push_item}, {!seek} and {!drain} allocate nothing. Beside each
    held item the lane keeps an int {e stamp} of the caller's (a
    cluster learner stamps the time its replica applied the op), in an
    unboxed array, so an item needs no record to carry it. A taken slot
    keeps nothing alive — an emitted item is reachable only through
    what the caller kept of it. *)

type 'a input =
  | Item of 'a
      (** One agreed delivery of the ring, at its next position, with
          stamp 0. *)
  | Skip of int
      (** The ring's next [k] positions hold no item ([k <= 0] is
          dropped). *)

type 'a t

val create : rings:int -> 'a t
(** @raise Invalid_argument if [rings < 1]. *)

val push_item : 'a t -> ring:int -> stamp:int -> 'a -> unit
(** Put an item, with its [stamp], at ring [ring]'s next position, and
    move the ring's known position one past it.
    @raise Invalid_argument if [ring] is out of range. *)

val seek : 'a t -> ring:int -> int -> unit
(** [seek t ~ring p] moves ring [ring]'s known position up to [p]; the
    positions it passes hold no item. A [p] at or below the known
    position is a no-op, so a duplicated or late seek changes nothing.
    @raise Invalid_argument if [ring] is out of range. *)

val push : 'a t -> ring:int -> 'a input -> unit
(** {!push_item}, or a {!seek} [k] positions past the known one. *)

val drain : 'a t -> (int -> int -> 'a -> unit) -> unit
(** [drain t f] calls [f ring stamp x] for each item of the merged
    order the merge can reach, in order, and returns when no ring holds
    an item or the next turn's unit is not yet known. Blocked is not
    final — push or seek and drain again. [f] may push into [t]; the
    item is taken before [f] runs, and the drain goes on with whatever
    [f] pushed. *)

val pop_all : 'a t -> (int * 'a) list
(** {!drain} into a list of [(ring, item)], without the stamps. *)

val rings : 'a t -> int

val emitted : 'a t -> int
(** Total items emitted so far. *)

val turn : 'a t -> int
(** The next merge turn: inside [f], the item just taken sorted at
    [turn t - 1]. *)

val position : 'a t -> ring:int -> int
(** The ring's known position: units [0 .. position - 1] are known. *)

val pending : 'a t -> ring:int -> int
(** Items pushed for [ring] not yet emitted. *)
