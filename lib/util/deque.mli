(** Imperative double-ended queue backed by a growable circular buffer.

    Used for the per-node receive queues (token socket / data socket) and
    the membership layer's queues. All operations are
    amortized O(1), apart from {!clear}, which is O(capacity).

    The buffer never keeps an element alive: a popped or cleared
    element's slot is overwritten, so the deque holds no reference to it
    (a receive queue does not keep delivered frames reachable). A push
    allocates the option a later pop returns, so a push/pop pair
    allocates one option. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty deque. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit
(** [push_back d x] appends [x] at the back of [d]. *)

val push_front : 'a t -> 'a -> unit
(** [push_front d x] prepends [x] at the front of [d]. *)

val pop_front : 'a t -> 'a option
(** [pop_front d] removes and returns the front element. *)

val pop_back : 'a t -> 'a option
(** [pop_back d] removes and returns the back element. *)

val peek_front : 'a t -> 'a option
val peek_back : 'a t -> 'a option

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f d] applies [f] front-to-back. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** [fold f init d] folds front-to-back. *)

val to_list : 'a t -> 'a list
(** [to_list d] is the elements front-to-back. *)

val exists : ('a -> bool) -> 'a t -> bool
