open Aring_wire
module Metrics = Aring_obs.Metrics
module Flight = Aring_obs.Flight
module Span = Aring_obs.Span
module Bytes_ring = Aring_util.Bytes_ring

type timer_kind = Token_retransmit | Token_loss

type input =
  | Token_received of Message.token
  | Data_received of Message.data
  | Submit of Types.service * bytes
  | Timer_expired of timer_kind

type output =
  | Send_token of Types.pid * Message.token
  | Send_data of Message.data
  | Deliver of Message.data
  | Set_timer of timer_kind * int

type 'a sink = {
  send_token : Types.pid -> Message.token -> 'a;
  send_data : Message.data -> 'a;
  deliver : Message.data -> 'a;
  rearm : 'a list;
  rearm_retransmit : 'a list;
}

type stats = {
  mutable rounds : int;
  mutable new_sent : int;
  mutable retrans_sent : int;
  mutable rtr_requested : int;
  mutable delivered : int;
  mutable dup_tokens : int;
  mutable dup_data : int;
  mutable token_retransmits : int;
}

(* Retransmission requests added to the token per round are capped so the
   token stays within a single datagram even after catastrophic loss. *)
let max_rtr_per_round = 512

(* The receive window: every message held for delivery or possible
   retransmission, i.e. with [discard_floor < seq], sits in slot
   [seq land (length - 1)] of a power-of-two array, and every other slot
   holds [empty]. The array doubles on demand up to [window_ceiling]
   slots; a message the ceiling leaves no room for is dropped as lost. *)
let empty : Message.data =
  {
    d_ring = { rep = -1; ring_seq = -1 };
    seq = 0;
    pid = -1;
    d_round = 0;
    post_token = false;
    service = Types.Agreed;
    payload = Bytes.empty;
  }

let initial_window = 256

let initial_token ring_id : Message.token =
  {
    t_ring = ring_id;
    token_id = 0;
    t_round = 0;
    t_seq = 0;
    aru = 0;
    aru_id = None;
    fcc = 0;
    rtr = [];
  }

(* Stands in for "no token forwarded yet" in [saved_token]. *)
let no_token = initial_token empty.d_ring

type t = {
  params : Params.t;
  ring_id : Types.ring_id;
  ring : Types.pid array;
  me : Types.pid;
  my_pos : int;
  mutable window : Message.data array;
  mutable buffered : int;  (* messages in [window] *)
  window_ceiling : int;
  (* Client submissions waiting for a token visit, oldest first: the
     payload, and one int packing the span's submit stamp (0 unless a
     collector was attached at submission) above the service tag. The
     stamp is read back with [lsr], so a wall-clock stamp (past 2^60 ns)
     keeps its value up to 2^61 ns. A recovery message, never stamped,
     is [recovered_meta] (see [meta_of]). *)
  pending : Bytes_ring.t;
  mutable round : Types.round;
  mutable last_token_id : int;
  mutable local_aru : Types.seqno;
  mutable delivered : Types.seqno;
  mutable safe_line : Types.seqno;
  mutable discard_floor : Types.seqno;
  mutable high_seq : Types.seqno;
  mutable last_sent_aru : Types.seqno;
  mutable prev_sent_aru : Types.seqno;
  mutable prev_recv_seq : Types.seqno;
  mutable last_round_sent : int;
  mutable saved_token : Message.token;  (* [no_token] until the first visit *)
  (* Set by every accepted token, cleared by progress evidence: whether
     the pending retransmit timer still has a token to re-send. *)
  mutable retransmit_wanted : bool;
  mutable retransmit_count : int;
  (* The engine's own outputs as a sink, built once: [handle] runs the
     same visit as a runtime's sink does. *)
  outputs : output sink;
  (* [Some me], shared by every token that names this node in aru_id. *)
  some_me : Types.pid option;
  stats : stats;
}

(* Index of [pid] in [ring] from [i] on, or -1: no option, so the
   per-message progress check allocates nothing. *)
let rec index_of (ring : Types.pid array) pid i =
  if i >= Array.length ring then -1
  else if ring.(i) = pid then i
  else index_of ring pid (i + 1)

(* Flow control keeps every sequenced message within [max_seq_gap] of a
   token's aru, and the discard floor trails that aru by about two
   rotations of at most [global_window] sends each, so the held span
   stays within about [max_seq_gap + 3 * global_window] (fuzz campaigns
   with loss and partitions reach under a third of the ceiling). The
   ceiling is twice [max_seq_gap + 2 * global_window], rounded up to a
   power of two, so only a seq no correct ring could have sequenced yet
   (a corrupt one) goes beyond it. *)
let window_ceiling (params : Params.t) =
  let bound = 2 * (params.max_seq_gap + 2 * params.global_window) in
  let rec pow2 n = if n >= bound then n else pow2 (2 * n) in
  pow2 initial_window

let create ~params ~ring_id ~ring ~me =
  (match Params.validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.create: " ^ msg));
  let my_pos = index_of ring me 0 in
  if my_pos < 0 then invalid_arg "Engine.create: me not in ring";
  let retransmit_timer = Set_timer (Token_retransmit, params.token_retransmit_ns)
  and loss_timer = Set_timer (Token_loss, params.token_loss_ns) in
  let outputs =
    {
      send_token = (fun pid tok -> Send_token (pid, tok));
      send_data = (fun d -> Send_data d);
      deliver = (fun d -> Deliver d);
      rearm = [ retransmit_timer; loss_timer ];
      rearm_retransmit = [ retransmit_timer ];
    }
  in
  {
    params;
    ring_id;
    ring = Array.copy ring;
    me;
    my_pos;
    window = Array.make initial_window empty;
    buffered = 0;
    window_ceiling = window_ceiling params;
    pending = Bytes_ring.create ();
    round = 0;
    last_token_id = -1;
    local_aru = 0;
    delivered = 0;
    safe_line = 0;
    discard_floor = 0;
    high_seq = 0;
    last_sent_aru = 0;
    prev_sent_aru = 0;
    prev_recv_seq = 0;
    last_round_sent = 0;
    saved_token = no_token;
    retransmit_wanted = false;
    retransmit_count = 0;
    outputs;
    some_me = Some me;
    stats =
      {
        rounds = 0;
        new_sent = 0;
        retrans_sent = 0;
        rtr_requested = 0;
        delivered = 0;
        dup_tokens = 0;
        dup_data = 0;
        token_retransmits = 0;
      };
  }

let me t = t.me
let ring_id t = t.ring_id
let ring t = Array.copy t.ring
let successor t = t.ring.((t.my_pos + 1) mod Array.length t.ring)

let predecessor t =
  let n = Array.length t.ring in
  t.ring.((t.my_pos - 1 + n) mod n)

let round t = t.round
let local_aru t = t.local_aru
let delivered_upto t = t.delivered
let safe_line t = t.safe_line
let high_seq t = t.high_seq
let pending_count t = Bytes_ring.length t.pending
let outputs t = t.outputs
(* The held message [seq], or [empty]. A slot holds [empty] or a message
   above the floor, so a seq match alone proves the message held. *)
let find t seq =
  let d = Array.unsafe_get t.window (seq land (Array.length t.window - 1)) in
  if d.seq = seq then d else empty

let holds t seq = find t seq != empty
let buffered_count t = t.buffered
let stats t = t.stats

let buffered_message t seq =
  let d = find t seq in
  if d == empty then None else Some d

(* Re-place the held messages in a window of [len] slots. *)
let resize t len =
  let w = Array.make len empty in
  Array.iter
    (fun (d : Message.data) -> if d != empty then w.(d.seq land (len - 1)) <- d)
    t.window;
  t.window <- w

(* Hold [d], replacing any message held under its seq, and growing the
   window if it needs room. False, with nothing held, when its seq lies
   beyond the ceiling: the message is then as good as lost, and the
   token's rtr asks for it again once the floor has risen. A seq at or
   below the floor (only a corrupt token could number one) is not held
   either, so every slot keeps the window's invariant. *)
let hold t (d : Message.data) =
  let span = d.seq - t.discard_floor in
  if span <= 0 || span > t.window_ceiling then false
  else begin
    if span > Array.length t.window then begin
      let rec size n = if n >= span then n else size (2 * n) in
      resize t (size (Array.length t.window))
    end;
    let i = d.seq land (Array.length t.window - 1) in
    if t.window.(i) == empty then t.buffered <- t.buffered + 1;
    t.window.(i) <- d;
    true
  end

let advance_local_aru t =
  while holds t (t.local_aru + 1) do
    t.local_aru <- t.local_aru + 1
  done

(* The delivery cursor: deliver every message it can reach, in sequence
   order, stopping at a gap or at an undelivered Safe message above the
   stability line. Agreed messages beyond an undelivered Safe message are
   thereby held back, preserving the total order. Each delivery is built
   by [deliver] (the caller's own constructor: the engine's [Deliver], or
   a runtime's action) and consed in order onto [tail], so callers
   assembling an action list pay one cell per delivery and no append. *)
let[@tail_mod_cons] rec deliver_ready_into t deliver tail =
  let next = t.delivered + 1 in
  let d = find t next in
  if d == empty || (Types.service_requires_stability d.service && next > t.safe_line)
  then tail
  else begin
    t.delivered <- next;
    t.stats.delivered <- t.stats.delivered + 1;
    Flight.record_wide ~node:t.me ~code:Flight.ev_deliver ~a:next ~b:d.pid
      ~c:(Message.service_tag d.service) ~d:0 ~e:(Flight.pack_ring t.ring_id)
      ~f:0 ~g:0 ~h:0 ~i:0;
    let delivery = deliver d in
    delivery :: deliver_ready_into t deliver tail
  end

(* Garbage-collect messages that are both delivered locally and known
   received by every participant: they can never be requested again. *)
let collect_garbage t =
  let floor = min t.safe_line t.delivered in
  if floor > t.discard_floor then begin
    (* Only seqs up to [discard_floor + length] can be held. *)
    let mask = Array.length t.window - 1 in
    for seq = t.discard_floor + 1 to min floor (t.discard_floor + mask + 1) do
      if (Array.unsafe_get t.window (seq land mask)).seq = seq then begin
        Array.unsafe_set t.window (seq land mask) empty;
        t.buffered <- t.buffered - 1
      end
    done;
    t.discard_floor <- floor
  end

(* Progress evidence: data initiated in a later round, or in the current
   round by a participant downstream of us, proves the token we forwarded
   was received — it cancels our retransmission responsibility. *)
let is_progress_evidence t (d : Message.data) =
  d.d_round > t.round
  || (d.d_round = t.round && index_of t.ring d.pid 0 > t.my_pos)

let handle_data t deliver (d : Message.data) =
  if is_progress_evidence t d then t.retransmit_wanted <- false;
  let dup = d.seq <= t.discard_floor || holds t d.seq in
  if dup then begin
    Flight.record ~node:t.me ~code:Flight.ev_data_recv ~a:d.seq ~b:d.pid ~c:1
      ~d:0;
    t.stats.dup_data <- t.stats.dup_data + 1;
    []
  end
  else if not (hold t d) then begin
    Flight.record ~node:t.me ~code:Flight.ev_data_recv ~a:d.seq ~b:d.pid ~c:2
      ~d:0;
    []
  end
  else begin
    Flight.record ~node:t.me ~code:Flight.ev_data_recv ~a:d.seq ~b:d.pid ~c:0
      ~d:0;
    if d.seq > t.high_seq then t.high_seq <- d.seq;
    advance_local_aru t;
    deliver_ready_into t deliver []
  end

(* Sequence numbers we have not received, in [seq, cap] and at most
   [budget] of them, that are not already requested on the token.
   [already] is ascending (the token's rtr invariant), so one lockstep
   cursor replaces the seed's O(n^2) List.mem probe per candidate. *)
let rec missing_from t cap seq budget already acc =
  if seq > cap || budget = 0 then List.rev acc
  else
    match already with
    | a :: rest when a < seq -> missing_from t cap seq budget rest acc
    | a :: rest when a = seq -> missing_from t cap (seq + 1) budget rest acc
    | _ ->
        if holds t seq then missing_from t cap (seq + 1) budget already acc
        else missing_from t cap (seq + 1) (budget - 1) already (seq :: acc)

(* Merge two ascending, disjoint seqno lists — equivalent to
   [List.sort compare (a @ b)] for such inputs, without the intermediate
   concatenation or the sort. *)
let rec merge_sorted a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, (y :: _ as yl) when x <= y -> x :: merge_sorted xs yl
  | xl, y :: ys -> y :: merge_sorted xl ys

(* Answer the token's retransmission requests we can serve (always
   pre-token), onto [sends] newest first. *)
let rec serve_rtr t sink rtr sends =
  match rtr with
  | [] -> sends
  | seq :: rest ->
      let d = find t seq in
      if d == empty then serve_rtr t sink rest sends
      else begin
        t.stats.retrans_sent <- t.stats.retrans_sent + 1;
        Flight.record_wide ~node:t.me ~code:Flight.ev_data_send ~a:d.seq ~b:0
          ~c:1 ~d:0 ~e:(Flight.pack_ring t.ring_id) ~g:0 ~h:0 ~i:0
          ~f:(Message.data_wire_size ~payload_len:(Bytes.length d.payload));
        serve_rtr t sink rest (sink.send_data d :: sends)
      end

(* The requests [serve_rtr] left unanswered (still missing here), in
   order: [rtr] itself when it answered none. New messages this round
   all carry seqs above the token's, so nothing buffered later in the
   round can retroactively answer one. *)
let rec unanswered_rtr t rtr =
  match rtr with
  | [] -> rtr
  | seq :: rest ->
      let kept = unanswered_rtr t rest in
      if holds t seq then kept
      else if kept == rest then rtr
      else seq :: kept

(* A pending submission's int: the stamp above a client service's two
   tag bits, or -1 for [Recovered], the one service past two bits. *)
let recovered_meta = -1

let meta_of (service : Types.service) =
  match service with
  | Recovered -> recovered_meta
  | Fifo | Causal | Agreed | Safe ->
      (Span.submit_stamp () lsl 2) lor Message.service_tag service

let service_of_meta meta =
  if meta = recovered_meta then Types.Recovered
  else Message.service_of_tag (meta land 3)

let stamp_of_meta meta = if meta = recovered_meta then 0 else meta lsr 2

let submit t service payload = Bytes_ring.push t.pending payload (meta_of service)

let handle_token t sink (tok : Message.token) =
  if tok.token_id <= t.last_token_id then begin
    t.stats.dup_tokens <- t.stats.dup_tokens + 1;
    []
  end
  else begin
    t.last_token_id <- tok.token_id;
    t.round <- t.round + 1;
    t.stats.rounds <- t.stats.rounds + 1;
    t.retransmit_wanted <- true;
    t.retransmit_count <- 0;
    Flight.record_wide ~node:t.me ~code:Flight.ev_token_recv ~a:tok.token_id
      ~b:tok.t_seq ~c:tok.aru ~d:t.local_aru ~e:(Flight.pack_ring t.ring_id)
      ~f:t.round ~g:t.safe_line ~h:0 ~i:0;
    (* 1. Answer retransmission requests we can serve, and keep the rest
       on the token. *)
    let rev_retrans = serve_rtr t sink tok.rtr [] in
    let num_retrans = List.length rev_retrans in
    let kept_rtr = unanswered_rtr t tok.rtr in
    let backlog_at_token = Bytes_ring.length t.pending in
    (* 2. Flow control (Section III-A.1). *)
    let by_global = t.params.global_window - tok.fcc - num_retrans in
    let by_gap = tok.aru + t.params.max_seq_gap - tok.t_seq in
    let allowed_new =
      max 0
        (min backlog_at_token (min t.params.personal_window (min by_global by_gap)))
    in
    (* 3. Prepare all new messages for the round; split them into the
       pre-token phase and the post-token phase (at most
       accelerated_window messages follow the token). *)
    let n_pre = max 0 (allowed_new - t.params.accelerated_window) in
    let rev_pre = ref [] and rev_post = ref [] in
    for i = 0 to allowed_new - 1 do
      let payload = Bytes_ring.front_bytes t.pending
      and meta = Bytes_ring.front_int t.pending in
      Bytes_ring.drop t.pending;
      let d : Message.data =
        {
          d_ring = t.ring_id;
          seq = tok.t_seq + i + 1;
          pid = t.me;
          d_round = t.round;
          post_token = i >= n_pre;
          service = service_of_meta meta;
          payload;
        }
      in
      (* We trivially "have" our own message the moment it exists. *)
      ignore (hold t d);
      t.stats.new_sent <- t.stats.new_sent + 1;
      Flight.record_wide ~node:t.me ~code:Flight.ev_data_send ~a:d.seq
        ~b:(if d.post_token then 1 else 0) ~c:0 ~d:(stamp_of_meta meta)
        ~e:(Flight.pack_ring t.ring_id) ~g:0 ~h:0 ~i:0
        ~f:(Message.data_wire_size ~payload_len:(Bytes.length payload));
      if i < n_pre then rev_pre := sink.send_data d :: !rev_pre
      else rev_post := sink.send_data d :: !rev_post
    done;
    let new_seq = tok.t_seq + allowed_new in
    if new_seq > t.high_seq then t.high_seq <- new_seq;
    advance_local_aru t;
    (* 4. aru update (Section III-A.2): lower to our local aru when we are
       missing messages; if we lowered it before (aru_id is ours) or the
       token was fully caught up (aru = seq), set it to our local aru so it
       can rise — possibly riding along with the new seq. *)
    let set_aru =
      t.local_aru < tok.aru
      || (match tok.aru_id with Some id -> id = t.me | None -> false)
      || tok.aru = tok.t_seq
    in
    let new_aru = if set_aru then t.local_aru else tok.aru in
    let new_aru_id =
      if not set_aru then tok.aru_id
      else if t.local_aru = new_seq then None
      else t.some_me
    in
    (* 5. fcc: replace our contribution from last round with this round's. *)
    let sent_this_round = num_retrans + allowed_new in
    let new_fcc = tok.fcc - t.last_round_sent + sent_this_round in
    t.last_round_sent <- sent_this_round;
    (* 6. rtr: drop what we answered; add what we are missing, capped at the
       seq of the token we received in the *previous* round so that
       messages still in a predecessor's post-token phase are not requested
       (the key retransmission subtlety of the accelerated protocol). *)
    let my_missing =
      missing_from t t.prev_recv_seq (t.local_aru + 1) max_rtr_per_round kept_rtr []
    in
    t.stats.rtr_requested <- t.stats.rtr_requested + List.length my_missing;
    let new_rtr = merge_sorted kept_rtr my_missing in
    let token' : Message.token =
      {
        t_ring = t.ring_id;
        token_id = tok.token_id + 1;
        t_round = t.round;
        t_seq = new_seq;
        aru = new_aru;
        aru_id = new_aru_id;
        fcc = new_fcc;
        rtr = new_rtr;
      }
    in
    t.saved_token <- token';
    t.prev_recv_seq <- tok.t_seq;
    (* 7. Stability: every participant could have lowered the aru during the
       last full rotation, so min(aru sent this round, aru sent last round)
       is received by all (Section III-A.4). *)
    t.prev_sent_aru <- t.last_sent_aru;
    t.last_sent_aru <- new_aru;
    let line = min t.prev_sent_aru t.last_sent_aru in
    if line > t.safe_line then t.safe_line <- line;
    Flight.record_wide ~node:t.me ~code:Flight.ev_token_send
      ~a:token'.token_id ~b:token'.t_seq ~c:token'.aru
      ~d:(List.length token'.rtr) ~e:(Flight.pack_ring t.ring_id)
      ~f:token'.t_round ~g:t.safe_line ~h:token'.fcc ~i:t.local_aru;
    (* 8. Deliver and discard; assemble the action list back to front so
       each phase is prepended once — no intermediate lists, no appends.
       Re-arming both timers supersedes the ones the last visit armed. *)
    let deliveries_on = deliver_ready_into t sink.deliver sink.rearm in
    collect_garbage t;
    List.rev_append rev_retrans
      (List.rev_append !rev_pre
         (sink.send_token (successor t) token'
         :: List.rev_append !rev_post deliveries_on))
  end

let max_token_retransmits t =
  max 1 (t.params.token_loss_ns / t.params.token_retransmit_ns)

(* Each kind has one pending timer (a re-arm supersedes it), so a fire
   is always the latest arm's: the loss timer's fire means no token came
   since, and the retransmit timer's acts unless progress evidence
   cleared [retransmit_wanted] in the meantime. *)
let timer t sink kind =
  match kind with
  | Token_retransmit ->
      let tok = t.saved_token in
      if
        (not t.retransmit_wanted) || tok == no_token
        || t.retransmit_count >= max_token_retransmits t
      then []
      else begin
        t.retransmit_count <- t.retransmit_count + 1;
        t.stats.token_retransmits <- t.stats.token_retransmits + 1;
        Flight.record ~node:t.me ~code:Flight.ev_token_retransmit
          ~a:tok.token_id ~b:t.retransmit_count ~c:0 ~d:0;
        sink.send_token (successor t) tok :: sink.rearm_retransmit
      end
  | Token_loss ->
      Flight.record ~node:t.me ~code:Flight.ev_token_lost ~a:t.round ~b:0
        ~c:0 ~d:0;
      []

let token t sink (tok : Message.token) =
  if Types.ring_id_equal tok.t_ring t.ring_id then handle_token t sink tok else []

let data t deliver (d : Message.data) =
  if Types.ring_id_equal d.d_ring t.ring_id then handle_data t deliver d else []

let handle t input =
  match input with
  | Token_received tok -> token t t.outputs tok
  | Data_received d -> data t t.outputs.deliver d
  | Submit (service, payload) ->
      submit t service payload;
      []
  | Timer_expired kind -> timer t t.outputs kind

let[@tail_mod_cons] rec drain_pending t =
  if Bytes_ring.is_empty t.pending then []
  else begin
    let payload = Bytes_ring.front_bytes t.pending
    and meta = Bytes_ring.front_int t.pending in
    Bytes_ring.drop t.pending;
    (service_of_meta meta, payload) :: drain_pending t
  end

let record_metrics ?(prefix = "") t reg =
  let c name v = Metrics.add (Metrics.counter reg (prefix ^ name)) v in
  c "engine.rounds" t.stats.rounds;
  c "engine.new_sent" t.stats.new_sent;
  c "engine.retrans_sent" t.stats.retrans_sent;
  c "engine.rtr_requested" t.stats.rtr_requested;
  c "engine.delivered" t.stats.delivered;
  c "engine.dup_tokens" t.stats.dup_tokens;
  c "engine.dup_data" t.stats.dup_data;
  c "engine.token_retransmits" t.stats.token_retransmits
