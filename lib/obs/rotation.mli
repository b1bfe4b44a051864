(** Per-round token-rotation profiling — the paper's Section IV
    instruments: rotation time, messages per round, aru progress per
    round, and the post-token overlap fraction (share of data sends that
    ride behind the token, the accelerated protocol's defining
    behavior).

    An observer node anchors the measurement: each accepted token
    receipt at that node closes one full rotation. View changes reset
    the anchor so partial rotations across membership churn are never
    sampled. *)

module Stats = Aring_util.Stats

type t

type summary = {
  observer : int;
  rotations : int;
  rotation_us : Stats.t;
  msgs_per_round : Stats.t;
  aru_per_round : Stats.t;
  post_token_fraction : float;
}

val create : node:int -> unit -> t
(** [node] is the anchor (usually the ring representative, pid 0). *)

val as_sink : t -> Trace.sink
(** Reads data sends, token receipts at the anchor and the application's
    views ({!Flight.ev_view_install}); replay a file with {!Trace.feed}. *)

val summary : t -> summary

val pp_summary : Format.formatter -> summary -> unit
