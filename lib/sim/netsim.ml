open Aring_wire
open Aring_ring
module Heap = Aring_util.Heap
module Prng = Aring_util.Prng
module Trace = Aring_obs.Trace
module Flight = Aring_obs.Flight
module Metrics = Aring_obs.Metrics

(* The event queue is allocation-free in steady state: events live in a
   preallocated arena of mutable records, the heap orders arena {e indices}
   (immediate ints), and freed slots are recycled through an index stack.
   Scheduling a packet arrival touches no closure, no tuple and no variant
   cell — it writes fields of a recycled record. Ordering is exactly the
   seed semantics: (timestamp clamped to now, monotonic insertion seq).

   A node keeps one pending timer per key: each node's key table points
   at the arena slot of that key's pending timer, and re-arming the key
   marks the old slot [Cancelled]. A cancelled slot stays in the heap
   until it reaches the top, where it is recycled without touching the
   clock or any node. *)

type Participant.timer += No_timer
(* Placeholder stored in freed slots so they retain no live timer. Never
   dispatched. *)

type ev_kind = Free | Arrival | Cpu_run | Timer | Cancelled | Port_drain | Call

type ev = {
  mutable at : int;
  mutable seq : int;
  mutable kind : ev_kind;
  mutable node : int;
  mutable size : int;  (* Port_drain: bytes to release *)
  mutable msg : Message.t;  (* Arrival payload *)
  mutable timer : Participant.timer;
  mutable fn : unit -> unit;  (* Call thunk *)
}

let dummy_msg =
  Message.Join { j_pid = -1; proc_set = []; fail_set = []; join_seq = 0 }

let fresh_ev () =
  {
    at = 0;
    seq = 0;
    kind = Free;
    node = -1;
    size = 0;
    msg = dummy_msg;
    timer = No_timer;
    fn = ignore;
  }

type stats = {
  mutable packets_sent : int;
  mutable switch_drops : int;
  mutable random_losses : int;
  mutable partition_drops : int;
}

type t = {
  net : Profile.net;
  tiers : Profile.tier array;
  parts : Participant.t array;
  events : int Heap.t;  (* arena indices, ordered by (at, seq) *)
  arena : ev array ref;
      (* Behind a ref so the heap's comparison closure follows growth. *)
  mutable free_stack : int array;
  mutable free_top : int;
  mutable event_seq : int;
  mutable now : int;
  prng : Prng.t;
  nic_free : int array;
  port_free : int array;
  port_bytes : int array;
  cpu_busy : int array;
  cpu_scheduled : bool array;
  alive : bool array;
  (* WAN/geo latency tiers: a packet from node [src] to node [dst] pays
     [class_latency.(classes.(src)).(classes.(dst))] ns on top of
     [net.latency_ns]. By default every node is in class 0, at 0 ns. *)
  mutable classes : int array;
  mutable class_latency : int array array;
  (* Multicast domains: a node's multicasts fan out only to nodes in the
     same domain (multi-ring isolation). [None] = one flat domain — the
     filter is never consulted, so defaults stay byte-identical. *)
  mutable domains : int array option;
  mutable drop : src:int -> dst:int -> Message.t -> bool;
  mutable deliver_cb : at:int -> now:int -> Message.data -> unit;
  mutable view_cb : at:int -> now:int -> Participant.view -> unit;
  mutable token_loss_cb : at:int -> now:int -> unit;
  stats : stats;
  (* Per node: timer key -> arena slot of that key's pending timer. *)
  pending_timers : (Participant.timer, int) Hashtbl.t array;
  mutable timers_fired : int;
  mutable timers_superseded : int;
}

let now t = t.now
let stats t = t.stats
let participant t i = t.parts.(i)
let on_deliver t f = t.deliver_cb <- f
let on_view t f = t.view_cb <- f
let on_token_loss t f = t.token_loss_cb <- f
let set_drop t f = t.drop <- f
let is_alive t i = t.alive.(i)

(* ------------------------------------------------------------------ *)
(* Event arena                                                          *)

let grow_arena t =
  let old = !(t.arena) in
  let old_n = Array.length old in
  let n = max 64 (2 * old_n) in
  let arena = Array.init n (fun i -> if i < old_n then old.(i) else fresh_ev ()) in
  t.arena := arena;
  let stack = Array.make n 0 in
  Array.blit t.free_stack 0 stack 0 t.free_top;
  t.free_stack <- stack;
  for i = old_n to n - 1 do
    t.free_stack.(t.free_top) <- i;
    t.free_top <- t.free_top + 1
  done

let alloc_ev t =
  if t.free_top = 0 then grow_arena t;
  t.free_top <- t.free_top - 1;
  t.free_stack.(t.free_top)

let enqueue t at i =
  let e = (!(t.arena)).(i) in
  e.at <- (if at < t.now then t.now else at);
  t.event_seq <- t.event_seq + 1;
  e.seq <- t.event_seq;
  Heap.push t.events i

let sched_arrival t at node msg =
  let i = alloc_ev t in
  let e = (!(t.arena)).(i) in
  e.kind <- Arrival;
  e.node <- node;
  e.msg <- msg;
  enqueue t at i

let sched_cpu t at node =
  let i = alloc_ev t in
  let e = (!(t.arena)).(i) in
  e.kind <- Cpu_run;
  e.node <- node;
  enqueue t at i

(* Arm [node]'s timer [timer], superseding a pending one of equal key. *)
let sched_timer t at node timer =
  let pending = t.pending_timers.(node) in
  (match Hashtbl.find pending timer with
  | old ->
      let e = (!(t.arena)).(old) in
      e.kind <- Cancelled;
      e.timer <- No_timer;
      t.timers_superseded <- t.timers_superseded + 1
  | exception Not_found -> ());
  let i = alloc_ev t in
  let e = (!(t.arena)).(i) in
  e.kind <- Timer;
  e.node <- node;
  e.timer <- timer;
  Hashtbl.replace pending timer i;
  enqueue t at i

let sched_drain t at node size =
  let i = alloc_ev t in
  let e = (!(t.arena)).(i) in
  e.kind <- Port_drain;
  e.node <- node;
  e.size <- size;
  enqueue t at i

let sched_call t at fn =
  let i = alloc_ev t in
  let e = (!(t.arena)).(i) in
  e.kind <- Call;
  e.fn <- fn;
  enqueue t at i

(* ------------------------------------------------------------------ *)

(* Packet size on the wire: base format plus the sending tier's extra
   protocol headers on data messages. *)
let packet_size t src msg =
  Message.wire_size msg
  +
  match msg with
  | Message.Data _ -> t.tiers.(src).Profile.extra_data_header
  | Message.Token _ | Message.Join _ | Message.Commit _ -> 0

(* Kick the destination CPU if it is idle. *)
let wake_cpu t dst =
  if t.alive.(dst) && not t.cpu_scheduled.(dst) && t.parts.(dst).has_work ()
  then begin
    t.cpu_scheduled.(dst) <- true;
    sched_cpu t (max t.now t.cpu_busy.(dst)) dst
  end

(* Replicate an already-serialized packet into [dst]'s output-port queue,
   dropping on overflow. [at_switch] comes from the one NIC serialization
   shared by every destination (IP-multicast); the port drains at the
   profile's link rate. *)
let port_enqueue t ~at_switch ~size ~src ~dst msg =
  if not t.alive.(dst) then ()
  else if t.drop ~src ~dst msg then begin
    t.stats.partition_drops <- t.stats.partition_drops + 1;
    Flight.record ~node:dst ~code:Flight.ev_drop ~a:Flight.drop_partition ~b:size
      ~c:0 ~d:0
  end
  else if t.net.loss_prob > 0.0 && Prng.bernoulli t.prng t.net.loss_prob
  then begin
    t.stats.random_losses <- t.stats.random_losses + 1;
    Flight.record ~node:dst ~code:Flight.ev_drop ~a:Flight.drop_random ~b:size
      ~c:0 ~d:0
  end
  else if t.port_bytes.(dst) + size > t.net.switch_port_buffer then begin
    t.stats.switch_drops <- t.stats.switch_drops + 1;
    Flight.record ~node:dst ~code:Flight.ev_drop ~a:Flight.drop_switch ~b:size
      ~c:0 ~d:0
  end
  else begin
    t.port_bytes.(dst) <- t.port_bytes.(dst) + size;
    let tx = Profile.tx_ns t.net size in
    let port_start = max at_switch t.port_free.(dst) in
    let port_done = port_start + tx in
    t.port_free.(dst) <- port_done;
    sched_drain t port_done dst size;
    let extra = t.class_latency.(t.classes.(src)).(t.classes.(dst)) in
    sched_arrival t (port_done + t.net.latency_ns + extra) dst msg
  end

(* Serialize [msg] out of [src]'s NIC no earlier than [at]; returns the
   instant the packet reaches the switch, having advanced the NIC clock. *)
let nic_serialize t ~at src size =
  t.stats.packets_sent <- t.stats.packets_sent + 1;
  let tx = Profile.tx_ns t.net size in
  let nic_start = max at t.nic_free.(src) in
  let at_switch = nic_start + tx in
  t.nic_free.(src) <- at_switch;
  at_switch

let transmit_unicast t ~at src msg dst =
  let size = packet_size t src msg in
  let at_switch = nic_serialize t ~at src size in
  port_enqueue t ~at_switch ~size ~src ~dst msg

(* Fan out to every live participant but the source, in pid order — the
   same destination order the seed built as an explicit list. *)
let transmit_multicast t ~at src msg =
  let size = packet_size t src msg in
  let at_switch = nic_serialize t ~at src size in
  let n = Array.length t.parts in
  match t.domains with
  | None ->
      for dst = 0 to n - 1 do
        if dst <> src then port_enqueue t ~at_switch ~size ~src ~dst msg
      done
  | Some dom ->
      (* Cross-domain destinations are pruned before [port_enqueue]: no
         PRNG draw, no drop counter, no trace event — a domain switch
         never perturbs same-domain event streams. *)
      for dst = 0 to n - 1 do
        if dst <> src && dom.(dst) = dom.(src) then
          port_enqueue t ~at_switch ~size ~src ~dst msg
      done

(* Interpret a participant's actions, advancing a CPU cursor so that each
   send and each delivery occupies the CPU serially in action order.
   Explicit recursion: no fold closure per call. *)
let rec interpret t node actions ~cursor =
  match actions with
  | [] -> cursor
  | action :: rest ->
      let tier = t.tiers.(node) in
      let cursor =
        match action with
        | Participant.Unicast (dst, msg) ->
            let cursor = cursor + tier.Profile.send_op_ns in
            if dst = node then
              (* Loopback (e.g. handing oneself the initial token). *)
              sched_arrival t (cursor + 1_000) dst msg
            else transmit_unicast t ~at:cursor node msg dst;
            cursor
        | Participant.Multicast msg ->
            let cursor = cursor + tier.Profile.send_op_ns in
            transmit_multicast t ~at:cursor node msg;
            cursor
        | Participant.Deliver d ->
            let cursor = cursor + tier.Profile.deliver_ns in
            if Trace.enabled () then Participant.trace_action ~t_ns:cursor ~node action;
            t.deliver_cb ~at:node ~now:cursor d;
            cursor
        | Participant.Deliver_config v ->
            let cursor = cursor + tier.Profile.deliver_ns in
            if Trace.enabled () then Participant.trace_action ~t_ns:cursor ~node action;
            t.view_cb ~at:node ~now:cursor v;
            cursor
        | Participant.Arm_timer (timer, delay) ->
            sched_timer t (cursor + delay) node timer;
            cursor
        | Participant.Token_loss_detected ->
            t.token_loss_cb ~at:node ~now:cursor;
            cursor
      in
      interpret t node rest ~cursor

let proc_cost t node msg =
  let tier = t.tiers.(node) in
  match msg with
  | Message.Token _ | Message.Commit _ -> tier.Profile.token_proc_ns
  | Message.Data d ->
      let wire_bytes =
        Message.wire_size (Message.Data d) + tier.Profile.extra_data_header
      in
      Profile.data_proc_cost tier ~mtu:t.net.Profile.mtu ~wire_bytes
  | Message.Join _ -> tier.Profile.token_proc_ns

let dispatch t kind node size msg timer fn =
  match kind with
  | Arrival ->
      if t.alive.(node) then begin
        ignore (t.parts.(node).receive msg);
        wake_cpu t node
      end
  | Cpu_run ->
      t.cpu_scheduled.(node) <- false;
      if t.alive.(node) then begin
        match t.parts.(node).take_next () with
        | None -> ()
        | Some msg ->
            let cursor = t.now + proc_cost t node msg in
            let actions = t.parts.(node).process msg in
            let busy = interpret t node actions ~cursor in
            t.cpu_busy.(node) <- busy;
            wake_cpu t node
      end
  | Timer ->
      Hashtbl.remove t.pending_timers.(node) timer;
      if t.alive.(node) then begin
        t.timers_fired <- t.timers_fired + 1;
        let actions = t.parts.(node).fire_timer timer in
        if actions <> [] then begin
          let cursor = max t.now t.cpu_busy.(node) + 500 in
          let busy = interpret t node actions ~cursor in
          t.cpu_busy.(node) <- busy
        end
      end
  | Port_drain -> t.port_bytes.(node) <- t.port_bytes.(node) - size
  | Call -> fn ()
  | Free | Cancelled -> assert false

(* Pop the minimum event, copy its fields out, recycle the slot, then
   dispatch — handlers may schedule into (and reuse) the freed slot. A
   superseded timer is only recycled: the clock stays where it is. *)
let step t =
  let i = Heap.pop_exn t.events in
  let e = (!(t.arena)).(i) in
  let kind = e.kind and node = e.node and size = e.size in
  let msg = e.msg and timer = e.timer and fn = e.fn in
  e.kind <- Free;
  e.msg <- dummy_msg;
  e.timer <- No_timer;
  e.fn <- ignore;
  t.free_stack.(t.free_top) <- i;
  t.free_top <- t.free_top + 1;
  if kind <> Cancelled then begin
    t.now <- e.at;
    dispatch t kind node size msg timer fn
  end

let initial_arena = 256

let create ~net ~tiers ~participants ?(seed = 1L) () =
  let n = Array.length participants in
  if Array.length tiers <> n then
    invalid_arg "Netsim.create: tiers and participants must align";
  let arena = ref (Array.init initial_arena (fun _ -> fresh_ev ())) in
  let events =
    Heap.create ~cmp:(fun i j ->
        let a = (!arena).(i) and b = (!arena).(j) in
        if a.at <> b.at then compare a.at b.at else compare a.seq b.seq)
  in
  Heap.reserve events initial_arena;
  let t =
    {
      net;
      tiers;
      parts = participants;
      events;
      arena;
      free_stack = Array.init initial_arena (fun i -> i);
      free_top = initial_arena;
      event_seq = 0;
      now = 0;
      prng = Prng.create ~seed;
      nic_free = Array.make n 0;
      port_free = Array.make n 0;
      port_bytes = Array.make n 0;
      cpu_busy = Array.make n 0;
      cpu_scheduled = Array.make n false;
      alive = Array.make n true;
      classes = Array.make n 0;
      class_latency = [| [| 0 |] |];
      domains = None;
      drop = (fun ~src:_ ~dst:_ _ -> false);
      deliver_cb = (fun ~at:_ ~now:_ _ -> ());
      view_cb = (fun ~at:_ ~now:_ _ -> ());
      token_loss_cb = (fun ~at:_ ~now:_ -> ());
      stats =
        {
          packets_sent = 0;
          switch_drops = 0;
          random_losses = 0;
          partition_drops = 0;
        };
      pending_timers = Array.init n (fun _ -> Hashtbl.create 8);
      timers_fired = 0;
      timers_superseded = 0;
    }
  in
  (* Trace timestamps follow the simulated clock while this simulator is
     the active runtime. *)
  Trace.set_clock (fun () -> t.now);
  Array.iteri
    (fun i p ->
      sched_call t 0 (fun () ->
          ignore (interpret t i (p.Participant.start ()) ~cursor:t.now)))
    participants;
  t

let submit_now t ~node service payload =
  if t.alive.(node) then begin
    let tier = t.tiers.(node) in
    t.cpu_busy.(node) <- max t.now t.cpu_busy.(node) + tier.Profile.submit_ns;
    t.parts.(node).submit service payload;
    (* Some protocols (e.g. the sequencer baseline) emit work directly on
       submission rather than waiting for a token visit. *)
    wake_cpu t node
  end

let submit_at t ~at ~node service payload =
  sched_call t at (fun () -> submit_now t ~node service payload)

let call_at t ~at f = sched_call t at f

let set_drop_until t ~until f =
  let prev = t.drop in
  t.drop <- (fun ~src ~dst msg -> f ~src ~dst msg || prev ~src ~dst msg);
  sched_call t until (fun () -> t.drop <- prev)

let set_domains t dom =
  if Array.length dom <> Array.length t.parts then
    invalid_arg "Netsim.set_domains: domains must cover every node";
  t.domains <- Some (Array.copy dom)

let set_latency_classes t ~classes ~matrix =
  let n = Array.length t.parts in
  if Array.length classes <> n then
    invalid_arg "Netsim.set_latency_classes: classes must cover every node";
  let k = Array.length matrix in
  Array.iter
    (fun row ->
      if Array.length row <> k then
        invalid_arg "Netsim.set_latency_classes: matrix must be square")
    matrix;
  Array.iter
    (fun c ->
      if c < 0 || c >= k then
        invalid_arg "Netsim.set_latency_classes: class out of range")
    classes;
  (* Copy so later caller mutation cannot desynchronize a running sim. *)
  t.classes <- Array.copy classes;
  t.class_latency <- Array.map Array.copy matrix

let crash t node =
  t.alive.(node) <- false;
  Flight.record ~node ~code:Flight.ev_crash ~a:0 ~b:0 ~c:0 ~d:0

let record_metrics t reg =
  let c name v = Metrics.add (Metrics.counter reg name) v in
  c "netsim.packets_sent" t.stats.packets_sent;
  c "netsim.switch_drops" t.stats.switch_drops;
  c "netsim.random_losses" t.stats.random_losses;
  c "netsim.partition_drops" t.stats.partition_drops;
  c "netsim.timers_fired" t.timers_fired;
  c "netsim.timers_superseded" t.timers_superseded

let run_until t horizon =
  let continue = ref true in
  while !continue do
    if
      (not (Heap.is_empty t.events))
      && (!(t.arena)).(Heap.top_exn t.events).at <= horizon
    then step t
    else begin
      continue := false;
      t.now <- max t.now horizon
    end
  done
