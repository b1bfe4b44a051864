(* Instant-delivery in-memory cluster used by protocol unit and property
   tests. Packets arrive in send order with zero latency; optional Bernoulli
   loss can be applied to multicast data (never to the token, so tests do not
   depend on timers — token loss is exercised against the real simulator).

   The toy network never quiesces (the token circulates forever), so tests
   run a fixed number of steps and then assert properties. *)

open Aring_wire
open Aring_ring
module Prng = Aring_util.Prng

type delivery = {
  at : Types.pid;  (* receiving participant *)
  from : Types.pid;  (* initiator *)
  seq : Types.seqno;
  service : Types.service;
  payload : bytes;
}

type t = {
  nodes : Node.t array;
  prng : Prng.t;
  data_loss : float;
  drop : src:Types.pid -> dst:Types.pid -> Message.data -> bool;
  mutable deliveries : delivery list array;  (* newest first, per node *)
  mutable submitted : int;
}

let ring_id : Types.ring_id = { rep = 0; ring_seq = 1 }

let apply t at = function
  | Participant.Unicast (dst, msg) -> ignore (Node.receive t.nodes.(dst) msg)
  | Participant.Multicast msg ->
      Array.iteri
        (fun j node ->
          if j <> at then
            let lost =
              match msg with
              | Message.Data d ->
                  t.drop ~src:at ~dst:j d
                  || (t.data_loss > 0.0 && Prng.bernoulli t.prng t.data_loss)
              | Message.Token _ | Message.Join _ | Message.Commit _ -> false
            in
            if not lost then ignore (Node.receive node msg))
        t.nodes
  | Participant.Deliver d ->
      t.deliveries.(at) <-
        {
          at;
          from = d.pid;
          seq = d.seq;
          service = d.service;
          payload = d.payload;
        }
        :: t.deliveries.(at)
  | Participant.Arm_timer _ | Participant.Disarm_timer _
  | Participant.Deliver_config _ ->
      ()

let create ?(data_loss = 0.0) ?(seed = 42L)
    ?(drop = fun ~src:_ ~dst:_ _ -> false) ~params n =
  let ring = Array.init n (fun i -> i) in
  let nodes =
    Array.init n (fun me -> Node.create ~params ~ring_id ~ring ~me)
  in
  let t =
    {
      nodes;
      prng = Prng.create ~seed;
      data_loss;
      drop;
      deliveries = Array.make n [];
      submitted = 0;
    }
  in
  Array.iteri (fun i node -> List.iter (apply t i) (Node.start node)) nodes;
  t

let submit t pid service payload =
  Node.submit t.nodes.(pid) service payload;
  t.submitted <- t.submitted + 1

(* Process one queued message at one node, scanning round-robin from
   [start]. Returns false when every queue is empty. *)
let step t start =
  let n = Array.length t.nodes in
  let rec scan i =
    if i >= n then false
    else
      let at = (start + i) mod n in
      match Node.take_next t.nodes.(at) with
      | None -> scan (i + 1)
      | Some msg ->
          List.iter (apply t at) (Node.process t.nodes.(at) msg);
          true
  in
  scan 0

let run t ~steps =
  let continue = ref true in
  let i = ref 0 in
  while !continue && !i < steps do
    continue := step t !i;
    incr i
  done

let deliveries t pid = List.rev t.deliveries.(pid)

let delivered_seqs t pid = List.map (fun d -> d.seq) (deliveries t pid)

let node t pid = t.nodes.(pid)

let engine t pid = Node.engine t.nodes.(pid)

let size t = Array.length t.nodes
