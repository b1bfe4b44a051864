type priority_method = Aggressive | Conservative

type t = {
  personal_window : int;
  global_window : int;
  accelerated_window : int;
  max_seq_gap : int;
  priority_method : priority_method;
  token_retransmit_ns : int;
  token_loss_ns : int;
  join_retransmit_ns : int;
  consensus_timeout_ns : int;
  merge_probe_ns : int;
}

let ms n = n * 1_000_000

let default =
  {
    personal_window = 60;
    global_window = 300;
    accelerated_window = 20;
    max_seq_gap = 2000;
    priority_method = Aggressive;
    token_retransmit_ns = ms 20;
    token_loss_ns = ms 200;
    join_retransmit_ns = ms 50;
    consensus_timeout_ns = ms 500;
    merge_probe_ns = ms 300;
  }

let original =
  { default with accelerated_window = 0; priority_method = Conservative }

let snappy =
  {
    default with
    token_retransmit_ns = ms 10;
    token_loss_ns = ms 50;
    join_retransmit_ns = ms 20;
    consensus_timeout_ns = ms 100;
    merge_probe_ns = ms 80;
  }

let is_original p = p.accelerated_window = 0

let validate p =
  if p.personal_window <= 0 then Error "personal_window must be positive"
  else if p.global_window < p.personal_window then
    Error "global_window must be at least personal_window"
  else if p.accelerated_window < 0 then
    Error "accelerated_window must be non-negative"
  else if p.accelerated_window > p.personal_window then
    Error "accelerated_window must not exceed personal_window"
  else if p.max_seq_gap < p.global_window then
    Error "max_seq_gap must be at least global_window"
  else if p.token_retransmit_ns <= 0 || p.token_loss_ns <= p.token_retransmit_ns
  then Error "token_loss_ns must exceed token_retransmit_ns"
  else if p.join_retransmit_ns <= 0 || p.consensus_timeout_ns <= p.join_retransmit_ns
  then
    (* The consensus timeout declares processes not heard from since the
       previous timeout failed; a join cadence at or above it would let a
       healthy gather starve itself of fresh joins. *)
    Error "consensus_timeout_ns must exceed join_retransmit_ns"
  else Ok ()
