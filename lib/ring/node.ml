open Aring_wire
module Deque = Aring_util.Deque

type Participant.timer += Engine_timer of Engine.timer_kind

type queue = {
  q : Message.t Deque.t;
  cap_bytes : int;
  mutable occupied : int;
}

type t = {
  engine : Engine.t;
  prio : Priority.t;
  token_q : queue;
  data_q : queue;
  (* The engine builds this node's actions through [sink], made once,
     so a token visit's timer tail (retransmit, then loss) is shared, not
     rebuilt, and nothing is translated. *)
  sink : Participant.action Engine.sink;
  arm_loss : Participant.action list;  (* what [start] arms *)
}

let disarm_timers =
  [
    Participant.Disarm_timer (Engine_timer Engine.Token_retransmit);
    Participant.Disarm_timer (Engine_timer Engine.Token_loss);
  ]

let make_queue cap_bytes = { q = Deque.create (); cap_bytes; occupied = 0 }

(* Queue capacities in bytes: a tuned production socket-buffer setup. *)
let token_queue_cap = 256 * 1024
let data_queue_cap = 2 * 1024 * 1024

let create ~params ~ring_id ~ring ~me =
  let engine = Engine.create ~params ~ring_id ~ring ~me in
  let arm kind delay = Participant.Arm_timer (Engine_timer kind, delay) in
  let arm_retransmit = arm Engine.Token_retransmit params.Params.token_retransmit_ns
  and arm_loss = arm Engine.Token_loss params.Params.token_loss_ns in
  {
    engine;
    sink =
      {
        send_token = (fun pid tok -> Participant.Unicast (pid, Message.Token tok));
        send_data = (fun d -> Participant.Multicast (Message.Data d));
        deliver = (fun d -> Participant.Deliver d);
        rearm = [ arm_retransmit; arm_loss ];
        rearm_retransmit = [ arm_retransmit ];
      };
    arm_loss = [ arm_loss ];
    prio = Priority.create params.Params.priority_method;
    token_q = make_queue token_queue_cap;
    data_q = make_queue data_queue_cap;
  }

let engine t = t.engine

let start t =
  let me = Engine.me t.engine in
  if (Engine.ring t.engine).(0) = me then
    (* The representative holds the first token; route it through the
       normal receive path so processing cost and ordering are uniform. *)
    Participant.Unicast
      (me, Message.Token (Engine.initial_token (Engine.ring_id t.engine)))
    :: t.arm_loss
  else t.arm_loss

let submit t service payload = Engine.submit t.engine service payload

(* False, with nothing queued, when [msg] would overflow [queue]. *)
let enqueue queue msg =
  let size = Message.wire_size msg in
  if queue.occupied + size > queue.cap_bytes then false
  else begin
    queue.occupied <- queue.occupied + size;
    Deque.push_back queue.q msg;
    true
  end

let receive t msg =
  let queue =
    match msg with
    | Message.Token _ | Message.Commit _ -> t.token_q
    | Message.Data _ | Message.Join _ -> t.data_q
  in
  if enqueue queue msg then `Queued else `Dropped

let has_work t =
  not (Deque.is_empty t.token_q.q && Deque.is_empty t.data_q.q)


let dequeue queue =
  match Deque.pop_front queue.q with
  | None -> None
  | Some msg as some ->
      queue.occupied <- queue.occupied - Message.wire_size msg;
      some

let take_next t =
  if Priority.token_has_priority t.prio then
    match dequeue t.token_q with None -> dequeue t.data_q | some -> some
  else
    match dequeue t.data_q with None -> dequeue t.token_q | some -> some

let process t msg =
  match msg with
  | Message.Token tok ->
      let round_before = Engine.round t.engine in
      let actions = Engine.token t.engine t.sink tok in
      if Engine.round t.engine > round_before then
        Priority.note_token_processed t.prio;
      actions
  | Message.Data d ->
      let actions = Engine.data t.engine t.sink.deliver d in
      Priority.note_data_processed t.prio
        ~predecessor:(Engine.predecessor t.engine)
        ~current_round:(Engine.round t.engine)
        d;
      actions
  | Message.Join _ | Message.Commit _ ->
      (* Membership traffic is handled by the membership layer wrapping
         this node (see Member); an operational node alone ignores it. *)
      []

let fire_timer t timer =
  match timer with
  | Engine_timer kind -> Engine.timer t.engine t.sink kind
  | _ -> []

let participant t : Participant.t =
  {
    pid = Engine.me t.engine;
    submit = (fun service payload -> submit t service payload);
    receive = (fun msg -> receive t msg);
    has_work = (fun () -> has_work t);
    take_next = (fun () -> take_next t);
    process = (fun msg -> process t msg);
    fire_timer = (fun timer -> fire_timer t timer);
    start = (fun () -> start t);
  }
