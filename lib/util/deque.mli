(** Imperative FIFO queue backed by a growable circular buffer.

    Used for the per-node receive queues (token socket / data socket),
    the membership layer's queues and the baselines' inboxes. Every
    operation is amortized O(1).

    The buffer never keeps an element alive: a popped element's slot is
    overwritten, so the queue holds no reference to it (a receive queue
    does not keep delivered frames reachable). A push allocates the
    option the matching pop returns, so a push/pop pair allocates one
    option. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty queue. *)

val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit
(** [push_back d x] appends [x] at the back of [d]. *)

val pop_front : 'a t -> 'a option
(** [pop_front d] removes and returns the front element. *)
