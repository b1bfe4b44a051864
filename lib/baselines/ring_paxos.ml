open Aring_wire
open Aring_ring
module Deque = Aring_util.Deque

type Participant.timer += Paxos_gap_check

let history_window = 200_000

let gap_check_ns = 2_000_000

let max_outstanding = 256

let max_nack_batch = 256

(* Marker ring id for all Ring Paxos packets. *)
let paxos_ring : Types.ring_id = { rep = -2; ring_seq = -2 }

(* d_round encodes the message role. *)
let role_proposal = 0
let role_phase2a = 1
let role_decision = 2

type t = {
  me : Types.pid;
  n : int;
  quorum : int;  (* acceptors are pids 0..quorum-1 *)
  inbox : Message.t Deque.t;
  (* Learner/acceptor state. *)
  values : (int, Message.data) Hashtbl.t;  (* instance -> phase 2a value *)
  mutable accepted_high : int;  (* contiguous 2a prefix *)
  mutable decided_high : int;  (* highest decided instance known *)
  mutable delivered : int;  (* delivery cursor *)
  mutable gap_timer_armed : bool;
  (* Coordinator state. *)
  mutable next_instance : int;
  pending : Message.data Deque.t;  (* proposals waiting for the window *)
  (* Last acceptor state. *)
  mutable decision_sent : int;
}

(* The coordinator is process 0, the first acceptor. *)
let coordinator = 0

let create ~me ~n =
  {
    me;
    n;
    quorum = (n / 2) + 1;
    inbox = Deque.create ();
    values = Hashtbl.create 1024;
    accepted_high = 0;
    decided_high = 0;
    delivered = 0;
    gap_timer_armed = false;
    next_instance = 1;
    pending = Deque.create ();
    decision_sent = 0;
  }

let decided_count t = t.decided_high

let is_coordinator t = t.me = coordinator

(* Acceptors occupy ring positions 0..quorum-1, starting at the
   coordinator. *)
let is_acceptor t = t.me < t.quorum

let is_last_acceptor t = t.me = t.quorum - 1

let next_acceptor t = (t.me + 1) mod t.n

let data ?(payload = Bytes.empty) t ~role ~instance ~origin : Message.data =
  ignore t;
  {
    d_ring = paxos_ring;
    seq = instance;
    pid = origin;
    d_round = role;
    post_token = false;
    service = Types.Agreed;
    payload;
  }

let advance_accepted t =
  while Hashtbl.mem t.values (t.accepted_high + 1) do
    t.accepted_high <- t.accepted_high + 1
  done

let deliver_ready t =
  let rec loop acc =
    let next = t.delivered + 1 in
    if next > t.decided_high then List.rev acc
    else
      match Hashtbl.find_opt t.values next with
      | None -> List.rev acc
      | Some d ->
          t.delivered <- next;
          (* Retain a bounded history (for the coordinator's NACK service). *)
          if next > history_window then
            Hashtbl.remove t.values (next - history_window);
          loop (Participant.Deliver d :: acc)
  in
  loop []

let arm_gap_timer t =
  if t.gap_timer_armed then []
  else begin
    t.gap_timer_armed <- true;
    [ Participant.Arm_timer (Paxos_gap_check, gap_check_ns) ]
  end

(* The 2b acknowledgement circulating the acceptor ring: [aru] is the
   minimum contiguously-accepted instance across the hops so far. *)
let chain_token t ~aru : Message.token =
  ignore t;
  {
    t_ring = paxos_ring;
    token_id = 0;
    t_round = 0;
    t_seq = 0;
    aru;
    aru_id = None;
    fcc = 0;
    rtr = [];
  }

let decision_actions t m =
  if m > t.decision_sent then begin
    t.decision_sent <- m;
    t.decided_high <- max t.decided_high m;
    Participant.Multicast
      (Message.Data (data t ~role:role_decision ~instance:m ~origin:t.me))
    :: deliver_ready t
  end
  else []

(* Coordinator: open consensus instances for queued proposals while the
   outstanding window allows. *)
let open_instances t =
  let actions = ref [] in
  while
    (not (Deque.is_empty t.pending))
    && t.next_instance - 1 - t.decided_high < max_outstanding
  do
    match Deque.pop_front t.pending with
    | None -> ()
    | Some proposal ->
        let instance = t.next_instance in
        t.next_instance <- t.next_instance + 1;
        let value = { proposal with seq = instance; d_round = role_phase2a } in
        Hashtbl.replace t.values instance value;
        advance_accepted t;
        actions := Participant.Multicast (Message.Data value) :: !actions;
        (* Start the 2b acknowledgement chain for the new acceptance. *)
        if t.quorum = 1 then actions := List.rev_append (decision_actions t t.accepted_high) !actions
        else
          actions :=
            Participant.Unicast
              (next_acceptor t, Message.Token (chain_token t ~aru:t.accepted_high))
            :: !actions
  done;
  List.rev !actions

let handle_proposal t (d : Message.data) =
  if is_coordinator t then begin
    Deque.push_back t.pending d;
    open_instances t
  end
  else [ Participant.Unicast (coordinator, Message.Data d) ]

let handle_phase2a t (d : Message.data) =
  if Hashtbl.mem t.values d.seq || d.seq <= t.delivered then []
  else begin
    Hashtbl.replace t.values d.seq d;
    advance_accepted t;
    let delivered = deliver_ready t in
    let nack =
      if t.delivered < t.decided_high then arm_gap_timer t else []
    in
    delivered @ nack
  end

let handle_decision t (d : Message.data) =
  if d.seq <= t.decided_high then []
  else begin
    t.decided_high <- d.seq;
    let delivered = deliver_ready t in
    let nack = if t.delivered < t.decided_high then arm_gap_timer t else [] in
    let more = if is_coordinator t then open_instances t else [] in
    delivered @ nack @ more
  end

(* 2b chain hop: fold in our own contiguous acceptance and either forward
   or, at the last acceptor, decide. *)
let handle_chain t (tok : Message.token) =
  if not (is_acceptor t) then []
  else begin
    let m = min tok.aru t.accepted_high in
    if is_last_acceptor t then decision_actions t m
    else [ Participant.Unicast (next_acceptor t, Message.Token (chain_token t ~aru:m)) ]
  end

(* NACK service at the coordinator: resend requested values, then a
   decision refresh so the requester can catch up. *)
let handle_nack t (tok : Message.token) requester =
  if not (is_coordinator t) then []
  else begin
    let resends =
      List.filter_map
        (fun instance ->
          match Hashtbl.find_opt t.values instance with
          | Some d -> Some (Participant.Unicast (requester, Message.Data d))
          | None -> None)
        tok.rtr
    in
    resends
    @ [
        Participant.Unicast
          (requester,
           Message.Data (data t ~role:role_decision ~instance:t.decided_high ~origin:t.me));
      ]
  end

let fire_gap_check t =
  t.gap_timer_armed <- false;
  if t.delivered >= t.decided_high then []
  else begin
    let rec missing inst budget acc =
      if inst > t.decided_high || budget = 0 then List.rev acc
      else if Hashtbl.mem t.values inst then missing (inst + 1) budget acc
      else missing (inst + 1) (budget - 1) (inst :: acc)
    in
    let gaps = missing (t.delivered + 1) max_nack_batch [] in
    let nack : Message.token =
      {
        t_ring = paxos_ring;
        token_id = 0;
        t_round = 0;
        t_seq = 0;
        aru = t.decided_high;
        aru_id = Some t.me;
        fcc = 0;
        rtr = gaps;
      }
    in
    Participant.Unicast (coordinator, Message.Token nack) :: arm_gap_timer t
  end

let submit t _service payload =
  Deque.push_back t.inbox
    (Message.Data (data t ~payload ~role:role_proposal ~instance:0 ~origin:t.me))

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
        | Message.Data d ->
            if d.d_round = role_proposal then handle_proposal t d
            else if d.d_round = role_phase2a then handle_phase2a t d
            else handle_decision t d
        | Message.Token tok -> (
            match tok.aru_id with
            | None -> handle_chain t tok
            | Some requester -> handle_nack t tok requester)
        | Message.Join _ | Message.Commit _ -> []);
    fire_timer =
      (fun timer ->
        match timer with Paxos_gap_check -> fire_gap_check t | _ -> []);
    start = (fun () -> []);
  }
