(** Protocol configuration: flow-control windows, acceleration, priority
    policy, and failure-detection timeouts.

    The Original Ring protocol of Totem/Spread is exactly the configuration
    with [accelerated_window = 0] and the conservative priority method
    (Section III-D of the paper: "When the accelerated window is set to zero
    at all participants, the second method is identical to the original Ring
    protocol"). *)

type priority_method =
  | Aggressive
      (** Method 1: raise token priority as soon as any data message from
          the ring predecessor initiated in the next round is processed. *)
  | Conservative
      (** Method 2: raise token priority only upon a next-round data message
          the predecessor sent {e after} releasing the token (its
          post-token phase). Identical to the original protocol when the
          accelerated window is zero. *)

type t = {
  personal_window : int;
      (** Maximum new messages one participant may initiate per round. *)
  global_window : int;
      (** Maximum messages (new + retransmissions) all participants combined
          may multicast per round, enforced through the token's [fcc]. *)
  accelerated_window : int;
      (** Maximum messages a participant may multicast after passing the
          token. [0] disables acceleration (original protocol). *)
  max_seq_gap : int;
      (** Bound on [token.seq - global_aru]: limits how far sequencing may
          run ahead of stability, bounding buffer occupancy. *)
  priority_method : priority_method;
  token_retransmit_ns : int;
      (** Token holder resends the token if it observes no progress within
          this delay. *)
  token_loss_ns : int;
      (** A participant that sees no token activity for this long declares
          token loss and triggers the membership algorithm. *)
  join_retransmit_ns : int;
      (** Gather state: interval between join message re-multicasts. *)
  consensus_timeout_ns : int;
      (** Gather state: deadline to reach agreement on a membership before
          declaring unreachable processes failed and retrying. Also bounds
          the commit/recovery phases (formation timeout). *)
  merge_probe_ns : int;
      (** Interval at which a ring's representative multicasts a presence
          probe so that healed partitions discover each other and merge
          even when idle. *)
}

val default : t
(** Accelerated protocol defaults used across tests and examples:
    [personal_window = 60], [global_window = 300],
    [accelerated_window = 20], [max_seq_gap = 2000], aggressive priority. *)

val original : t
(** The original Ring protocol: [default] with [accelerated_window = 0] and
    the conservative priority method. *)

val snappy : t
(** [default] with fast membership timeouts: token retransmit 10 ms,
    token loss 50 ms, join retransmit 20 ms, consensus 100 ms and merge
    probe 80 ms. Simulated runs are short, so partition merges must
    complete well inside their drain budget: the load harness, the
    multi-ring cluster, the fuzzer's schedules and the tests share it. *)

val is_original : t -> bool
(** [is_original p] holds when [p] disables acceleration entirely. *)

val validate : t -> (unit, string) result
(** Checks internal consistency (windows positive, accelerated window not
    exceeding the personal window, timeouts ordered). *)
