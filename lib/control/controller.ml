open Aring_obs

(* Online AIMD controller for the node-local accelerated window.

   Each token rotation the engine exposes two cheap signals: how many
   retransmissions this node saw or served, and the depth of its own
   pending backlog. From these the controller picks the accelerated
   window for the NEXT rotation.

   The accelerated window only governs how many of a node's admitted
   messages leave before the token rather than after it — it never
   changes what flow control admits, so two nodes running different
   windows still agree on every safety-relevant quantity. That locality
   is what makes runtime adaptation free: no ring-wide consensus, no
   wire change, each node converges on its own.

   The rule is additive-increase / multiplicative-decrease, between 0
   and the personal window:
   - congestion (any retransmission) halves the window; a congested
     rotation can NEVER raise it.
   - a backlog deeper than the current window raises it by [increase].
   - an idle node (backlog under half the window) decays the window by
     one, but only after [decay_after] consecutive idle rotations: the
     arrival process is bursty at the rotation scale, and decaying on
     every momentarily-quiet rotation makes the window sag well below
     the burst size it still has to absorb. A sustained quiet spell
     still walks the ring back to low-burstiness behaviour instead of
     parking at its high-load setting. *)

let increase = 2
let decay_after = 8

type signals = {
  retrans : int;  (* retransmissions sent plus requested this round *)
  backlog : int;  (* pending submissions waiting as the token arrived *)
}

type decision = { aw_before : int; aw_after : int; congested : bool }

type t = {
  aw_max : int;  (* the personal window *)
  mutable aw : int;
  mutable idle_streak : int;  (* consecutive rotations with 2*backlog < aw *)
  (* counters for control.* metrics *)
  mutable decisions : int;
  mutable increases : int;
  mutable decreases : int;
  mutable congestions : int;
}

let clamp aw_max v = max 0 (min aw_max v)

let create ~personal_window ~accelerated_window =
  {
    aw_max = personal_window;
    aw = clamp personal_window accelerated_window;
    idle_streak = 0;
    decisions = 0;
    increases = 0;
    decreases = 0;
    congestions = 0;
  }

let window t = t.aw

let observe t s =
  let aw_before = t.aw in
  let congested = s.retrans > 0 in
  let aw_after =
    if congested then begin
      t.idle_streak <- 0;
      (* Multiplicative decrease; never an increase, whatever the backlog. *)
      aw_before / 2
    end
    else if s.backlog > aw_before then begin
      t.idle_streak <- 0;
      clamp t.aw_max (aw_before + increase)
    end
    else if 2 * s.backlog < aw_before then begin
      t.idle_streak <- t.idle_streak + 1;
      if t.idle_streak >= decay_after then begin
        t.idle_streak <- 0;
        aw_before - 1
      end
      else aw_before
    end
    else begin
      t.idle_streak <- 0;
      aw_before
    end
  in
  t.aw <- aw_after;
  t.decisions <- t.decisions + 1;
  if congested then t.congestions <- t.congestions + 1;
  if aw_after > aw_before then t.increases <- t.increases + 1
  else if aw_after < aw_before then t.decreases <- t.decreases + 1;
  { aw_before; aw_after; congested }

let record_metrics t reg =
  let c name v = Metrics.add (Metrics.counter reg name) v in
  c "control.decisions" t.decisions;
  c "control.congestions" t.congestions;
  c "control.increases" t.increases;
  c "control.decreases" t.decreases;
  Metrics.set (Metrics.gauge reg "control.window") (float_of_int t.aw)
