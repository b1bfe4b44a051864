open Aring_wire
open Aring_ring
module Deque = Aring_util.Deque

type Participant.timer += Gap_check

let history_window = 200_000

let gap_check_ns = 2_000_000 (* 2 ms between NACK rounds *)

let max_nack_batch = 256

(* A marker ring id so sequencer packets never collide with ring traffic. *)
let seq_ring : Types.ring_id = { rep = -1; ring_seq = -1 }

type t = {
  me : Types.pid;
  n : int;
  inbox : Message.t Deque.t;
  (* Receiver state. *)
  mutable expected : Types.seqno;  (* next sequence number to deliver *)
  pending : (Types.seqno, Message.data) Hashtbl.t;
  mutable high_seen : Types.seqno;
  mutable gap_timer_armed : bool;
  (* Sequencer state. *)
  mutable next_seq : Types.seqno;
  history : (Types.seqno, Message.data) Hashtbl.t;
  (* Stats. *)
  mutable nacks_sent : int;
}

let sequencer = 0

let create ~me ~n =
  {
    me;
    n;
    inbox = Deque.create ();
    expected = 1;
    pending = Hashtbl.create 256;
    high_seen = 0;
    gap_timer_armed = false;
    next_seq = 1;
    history = Hashtbl.create 1024;
    nacks_sent = 0;
  }

let nacks_sent t = t.nacks_sent

let is_sequencer t = t.me = sequencer

(* Deliver everything contiguous from [expected]. *)
let deliver_ready t =
  let rec loop acc =
    match Hashtbl.find_opt t.pending t.expected with
    | None -> List.rev acc
    | Some d ->
        Hashtbl.remove t.pending t.expected;
        t.expected <- t.expected + 1;
        loop (Participant.Deliver d :: acc)
  in
  loop []

let arm_gap_timer t =
  if t.gap_timer_armed then []
  else begin
    t.gap_timer_armed <- true;
    [ Participant.Arm_timer (Gap_check, gap_check_ns) ]
  end

(* Sequencer: stamp and multicast one message. *)
let sequence t (d : Message.data) =
  let stamped = { d with seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  Hashtbl.replace t.history stamped.seq stamped;
  if stamped.seq > history_window then
    Hashtbl.remove t.history (stamped.seq - history_window);
  (* Deliver locally (multicast does not loop back). *)
  Hashtbl.replace t.pending stamped.seq stamped;
  (Participant.Multicast (Message.Data stamped) :: deliver_ready t)

let handle_ordered t (d : Message.data) =
  if d.seq < t.expected || Hashtbl.mem t.pending d.seq then []
  else begin
    Hashtbl.replace t.pending d.seq d;
    if d.seq > t.high_seen then t.high_seen <- d.seq;
    let delivered = deliver_ready t in
    let nack_timer =
      if t.expected <= t.high_seen then arm_gap_timer t else []
    in
    delivered @ nack_timer
  end

let handle_data t (d : Message.data) =
  if d.seq = 0 then
    (* A raw submission. At the sequencer: order it. At the submitting
       node: forward it (submissions are routed through the own inbox so
       the runtime charges send cost uniformly). *)
    if is_sequencer t then sequence t d
    else [ Participant.Unicast (sequencer, Message.Data d) ]
  else handle_ordered t d

(* NACK: a Token whose rtr lists the missing seqs; aru_id is the requester. *)
let handle_nack t (tok : Message.token) =
  if not (is_sequencer t) then []
  else
    match tok.aru_id with
    | None -> []
    | Some requester ->
        List.filter_map
          (fun seq ->
            match Hashtbl.find_opt t.history seq with
            | Some d -> Some (Participant.Unicast (requester, Message.Data d))
            | None -> None)
          tok.rtr

let fire_gap_check t =
  t.gap_timer_armed <- false;
  if t.expected > t.high_seen then []
  else begin
    let rec missing seq budget acc =
      if seq > t.high_seen || budget = 0 then List.rev acc
      else if Hashtbl.mem t.pending seq then missing (seq + 1) budget acc
      else missing (seq + 1) (budget - 1) (seq :: acc)
    in
    let gaps = missing t.expected max_nack_batch [] in
    if gaps = [] then []
    else begin
      t.nacks_sent <- t.nacks_sent + 1;
      let nack : Message.token =
        {
          t_ring = seq_ring;
          token_id = 0;
          t_round = 0;
          t_seq = 0;
          aru = 0;
          aru_id = Some t.me;
          fcc = 0;
          rtr = gaps;
        }
      in
      Participant.Unicast (sequencer, Message.Token nack) :: arm_gap_timer t
    end
  end

let submit t _service payload =
  (* Route through the inbox so processing/sending is charged like any
     other work by the driving runtime. *)
  let d : Message.data =
    {
      d_ring = seq_ring;
      seq = 0;
      pid = t.me;
      d_round = 0;
      post_token = false;
      service = Types.Agreed;
      payload;
    }
  in
  Deque.push_back t.inbox (Message.Data d)

let participant t : Participant.t =
  {
    pid = t.me;
    submit = (fun service payload -> submit t service payload);
    receive =
      (fun msg ->
        Deque.push_back t.inbox msg;
        `Queued);
    has_work = (fun () -> not (Deque.is_empty t.inbox));
    take_next = (fun () -> Deque.pop_front t.inbox);
    process =
      (fun msg ->
        match msg with
        | Message.Data d -> handle_data t d
        | Message.Token tok -> handle_nack t tok
        | Message.Join _ | Message.Commit _ -> []);
    fire_timer =
      (fun timer ->
        match timer with Gap_check -> fire_gap_check t | _ -> []);
    start = (fun () -> []);
  }
