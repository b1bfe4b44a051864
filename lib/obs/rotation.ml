module Stats = Aring_util.Stats

(* Per-round token-rotation profiling — the paper's Section IV
   instruments. An observer node anchors the measurement: each accepted
   token receipt at that node closes one full rotation, and the window
   between two receipts yields

   - rotation time (ns between anchor receipts),
   - messages per round (data sends ring-wide inside the window,
     retransmissions included),
   - aru progress (anchor-token aru delta across the window),
   - post-token overlap fraction (share of sends that ride behind the
     token — the accelerated protocol's defining behavior).

   Membership changes reset the anchor so half-rotations across a view
   change never pollute the sample. *)

type t = {
  node : int;
  mutable last_recv : (int * int) option;  (* t_ns, aru at anchor receipt *)
  mutable window_sends : int;
  mutable total_sends : int;
  mutable total_post : int;
  rotation_us : Stats.t;
  msgs_per_round : Stats.t;
  aru_per_round : Stats.t;
}

type summary = {
  observer : int;
  rotations : int;
  rotation_us : Stats.t;
  msgs_per_round : Stats.t;
  aru_per_round : Stats.t;
  post_token_fraction : float;
}

let create ~node () =
  {
    node;
    last_recv = None;
    window_sends = 0;
    total_sends = 0;
    total_post = 0;
    rotation_us = Stats.create ();
    msgs_per_round = Stats.create ();
    aru_per_round = Stats.create ();
  }

(* The records the profile reads (layouts in flight.mli): data sends,
   token receipts at the anchor, and the application's views. *)
let as_sink t ~ns ~node ~code ~a:_ ~b ~c ~d:_ ~e:_ ~f:_ ~g:_ ~h:_ ~i:_ =
  if code = Flight.ev_data_send then begin
    t.window_sends <- t.window_sends + 1;
    t.total_sends <- t.total_sends + 1;
    if b = 1 then t.total_post <- t.total_post + 1
  end
  else if code = Flight.ev_token_recv && node = t.node then begin
    (match t.last_recv with
    | Some (prev_ns, prev_aru) ->
        Stats.add_ns t.rotation_us (ns - prev_ns);
        Stats.add t.msgs_per_round (float_of_int t.window_sends);
        Stats.add t.aru_per_round (float_of_int (c - prev_aru))
    | None -> ());
    t.last_recv <- Some (ns, c);
    t.window_sends <- 0
  end
  else if code = Flight.ev_view_install then begin
    t.last_recv <- None;
    t.window_sends <- 0
  end

let summary t =
  {
    observer = t.node;
    rotations = Stats.count t.rotation_us;
    rotation_us = t.rotation_us;
    msgs_per_round = t.msgs_per_round;
    aru_per_round = t.aru_per_round;
    post_token_fraction =
      (if t.total_sends = 0 then 0.0
       else float_of_int t.total_post /. float_of_int t.total_sends);
  }

let pp_summary ppf s =
  if s.rotations = 0 then
    Format.fprintf ppf "no complete rotations observed at node %d" s.observer
  else
    Format.fprintf ppf
      "rotations=%d rotation_us(mean=%.1f p50=%.1f p99=%.1f) msgs/round(mean=%.1f \
       p99=%.0f) aru/round(mean=%.1f) post_token=%.1f%%"
      s.rotations (Stats.mean s.rotation_us)
      (Stats.median s.rotation_us)
      (Stats.percentile s.rotation_us 99.0)
      (Stats.mean s.msgs_per_round)
      (Stats.percentile s.msgs_per_round 99.0)
      (Stats.mean s.aru_per_round)
      (100.0 *. s.post_token_fraction)
