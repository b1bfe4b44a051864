(** Online AIMD controller for the node-local accelerated window.

    The accelerated window only decides how many admitted messages a
    node multicasts before forwarding the token instead of after it; it
    never changes what flow control admits. Adapting it is therefore a
    purely local decision — no ring-wide agreement, no wire-format
    change — and each node may run its own controller (or none).

    Per token rotation the engine hands the controller two signals
    (retransmission activity and local backlog depth) and receives the
    window for the next rotation, driven by an additive-increase /
    multiplicative-decrease rule between 0 and the personal window:

    - a retransmission this round is congestion: it halves the window,
      and a congested rotation can never raise it;
    - a backlog deeper than the window raises it by 2;
    - after 8 consecutive near-idle rotations (backlog under half the
      window) the window decays by one, returning a quiet ring to
      low-burstiness behaviour without sagging below the burst size a
      loaded ring still sees.

    Decisions are a pure function of the controller state and the
    signal sequence, so identical signal streams yield identical window
    trajectories (replay-stable). *)

type signals = {
  retrans : int;  (** retransmissions sent plus requested this round *)
  backlog : int;
      (** pending submissions waiting as the token arrived — the
          round's arrival count *)
}

type decision = { aw_before : int; aw_after : int; congested : bool }

type t

val create : personal_window:int -> accelerated_window:int -> t
(** A controller for a node with these [Params] fields: the
    window starts at [accelerated_window] and stays within
    [\[0, personal_window\]]. *)

val window : t -> int
(** The accelerated window the next rotation should use. *)

val observe : t -> signals -> decision
(** Feed one rotation's signals; updates {!window} and returns what
    changed. Deterministic: no clocks, no randomness. *)

val record_metrics : t -> Aring_obs.Metrics.t -> unit
(** Export [control.decisions], [control.congestions],
    [control.increases], [control.decreases] counters and the
    [control.window] gauge. *)
