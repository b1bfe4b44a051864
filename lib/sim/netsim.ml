open Aring_wire
open Aring_ring
module Event_heap = Aring_util.Event_heap
module Prng = Aring_util.Prng
module Flight = Aring_obs.Flight
module Metrics = Aring_obs.Metrics

(* The event queue is allocation-free in steady state: [Event_heap]
   orders int handles by (timestamp clamped to now, insertion seq), and
   each handle indexes a recycled mutable record in the arena. Only
   events that act are queued: re-arming a pending timer key re-keys its
   event in place, disarming it removes the event, and a switch port's
   buffered packets are released by [port_enqueue] rather than by a
   drain event each. *)

type Participant.timer += No_timer
(* Placeholder stored in freed slots so they retain no live timer. Never
   dispatched. *)

type ev_kind = Arrival | Cpu_run | Timer | Call

type ev = {
  mutable kind : ev_kind;
  mutable node : int;
  mutable msg : Message.t;  (* Arrival payload *)
  mutable timer : Participant.timer;
  mutable fn : unit -> unit;  (* Call thunk *)
}

let dummy_msg =
  Message.Join { j_pid = -1; proc_set = []; fail_set = []; join_seq = 0 }

let fresh_ev () =
  { kind = Call; node = -1; msg = dummy_msg; timer = No_timer; fn = ignore }

(* One switch output port: the bytes it buffers, the instant its link
   frees, and a ring of (done_at, seq, size) triples, one per buffered
   packet in send order — which is also (done_at, seq) order. *)
type port = {
  mutable fifo : int array;
  mutable head : int;  (* index of the oldest triple's [done_at] *)
  mutable queued : int;  (* triples held *)
  mutable bytes : int;
  mutable free_at : int;
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
  events : Event_heap.t;
  mutable arena : ev array;  (* by event handle *)
  mutable event_seq : int;
  mutable now : int;
  mutable now_seq : int;  (* seq of the event being dispatched *)
  prng : Prng.t;
  nic_free : int array;
  ports : port array;
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
  stats : stats;
  (* Per node: timer key -> handle of that key's pending timer. *)
  pending_timers : (Participant.timer, int) Hashtbl.t array;
  mutable timers_fired : int;
  mutable timers_superseded : int;
  mutable events_dispatched : int;
  mutable events_pending_peak : int;
}

let now t = t.now
let stats t = t.stats
let on_deliver t f = t.deliver_cb <- f
let on_view t f = t.view_cb <- f
let set_drop t f = t.drop <- f
let is_alive t i = t.alive.(i)

(* ------------------------------------------------------------------ *)
(* Event queue                                                          *)

let next_seq t =
  t.event_seq <- t.event_seq + 1;
  t.event_seq

(* Queue an event at [at] (clamped to now) and return its handle, the
   arena grown to the heap's handles first. *)
let enqueue t at kind node =
  let i =
    Event_heap.add t.events ~at:(if at < t.now then t.now else at)
      ~seq:(next_seq t)
  in
  let pending = Event_heap.length t.events in
  if pending > t.events_pending_peak then t.events_pending_peak <- pending;
  let old = t.arena in
  if i >= Array.length old then
    t.arena <-
      Array.init (Event_heap.capacity t.events) (fun j ->
          if j < Array.length old then old.(j) else fresh_ev ());
  let e = t.arena.(i) in
  e.kind <- kind;
  e.node <- node;
  i

let sched_arrival t at node msg =
  let i = enqueue t at Arrival node in
  t.arena.(i).msg <- msg

let sched_cpu t at node = ignore (enqueue t at Cpu_run node)

(* Arm [node]'s timer [timer]; a pending one of equal key is re-keyed in
   place, with the seq a new event would have drawn. *)
let sched_timer t at node timer =
  let pending = t.pending_timers.(node) in
  match Hashtbl.find pending timer with
  | i ->
      t.timers_superseded <- t.timers_superseded + 1;
      t.arena.(i).timer <- timer;
      Event_heap.rekey t.events i
        ~at:(if at < t.now then t.now else at)
        ~seq:(next_seq t)
  | exception Not_found ->
      let i = enqueue t at Timer node in
      t.arena.(i).timer <- timer;
      Hashtbl.add pending timer i

(* Disarm [node]'s timer [timer]: its pending event, if any, leaves the
   queue, drawing no seq. *)
let cancel_timer t node timer =
  match Hashtbl.find_opt t.pending_timers.(node) timer with
  | Some i ->
      Hashtbl.remove t.pending_timers.(node) timer;
      Event_heap.remove t.events i;
      t.arena.(i).timer <- No_timer
  | None -> ()

let sched_call t at fn =
  let i = enqueue t at Call (-1) in
  t.arena.(i).fn <- fn

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

(* Release [p]'s packets whose drain sorts before the current event
   (now, now_seq): exactly those a drain event would have released by
   now. *)
let rec port_release t p =
  let k = p.head in
  if
    p.queued > 0
    && (p.fifo.(k) < t.now || (p.fifo.(k) = t.now && p.fifo.(k + 1) < t.now_seq))
  then begin
    p.bytes <- p.bytes - p.fifo.(k + 2);
    p.head <- (k + 3) mod Array.length p.fifo;
    p.queued <- p.queued - 1;
    port_release t p
  end

(* Append a packet's (done_at, seq, size), unrolling a full ring into
   one twice as long. *)
let port_push p ~done_at ~seq ~size =
  let n = Array.length p.fifo in
  if 3 * p.queued = n then begin
    let fifo = Array.make (max 24 (2 * n)) 0 in
    Array.blit p.fifo p.head fifo 0 (n - p.head);
    Array.blit p.fifo 0 fifo (n - p.head) p.head;
    p.fifo <- fifo;
    p.head <- 0
  end;
  let k = (p.head + (3 * p.queued)) mod Array.length p.fifo in
  p.fifo.(k) <- done_at;
  p.fifo.(k + 1) <- seq;
  p.fifo.(k + 2) <- size;
  p.queued <- p.queued + 1

(* Replicate an already-serialized packet into [dst]'s output-port queue,
   dropping on overflow. [at_switch] comes from the one NIC serialization
   shared by every destination (IP-multicast); the port drains at the
   profile's link rate. The packet's drain entry draws its seq before
   its arrival does. *)
let port_enqueue t ~at_switch ~size ~src ~dst msg =
  let p = t.ports.(dst) in
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
  else if
    (port_release t p;
     p.bytes + size > t.net.switch_port_buffer)
  then begin
    t.stats.switch_drops <- t.stats.switch_drops + 1;
    Flight.record ~node:dst ~code:Flight.ev_drop ~a:Flight.drop_switch ~b:size
      ~c:0 ~d:0
  end
  else begin
    p.bytes <- p.bytes + size;
    let tx = Profile.tx_ns t.net size in
    let port_done = max at_switch p.free_at + tx in
    p.free_at <- port_done;
    port_push p ~done_at:port_done ~seq:(next_seq t) ~size;
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
         PRNG draw, no drop counter, no drop record — a domain switch
         never perturbs same-domain event streams. *)
      for dst = 0 to n - 1 do
        if dst <> src && dom.(dst) = dom.(src) then
          port_enqueue t ~at_switch ~size ~src ~dst msg
      done

(* Interpret a participant's actions, advancing a CPU cursor so that each
   send and each delivery occupies the CPU serially in action order.
   Explicit recursion: no fold closure per call. *)
let rec interpret t node actions ~cursor =
  let tier = t.tiers.(node) in
  match actions with
  | [] -> cursor
  | Participant.Unicast (dst, msg) :: rest ->
      let cursor = cursor + tier.Profile.send_op_ns in
      if dst = node then
        (* Loopback (e.g. handing oneself the initial token). *)
        sched_arrival t (cursor + 1_000) dst msg
      else transmit_unicast t ~at:cursor node msg dst;
      interpret t node rest ~cursor
  | Participant.Multicast msg :: rest ->
      let cursor = cursor + tier.Profile.send_op_ns in
      transmit_multicast t ~at:cursor node msg;
      interpret t node rest ~cursor
  | Participant.Deliver d :: rest -> deliver t node d rest ~copy:0 ~cursor
  | Participant.Deliver_config v :: rest ->
      let cursor = cursor + tier.Profile.deliver_ns in
      Flight.record_at ~ns:cursor ~node ~code:Flight.ev_view_install
        ~a:(Bool.to_int v.transitional) ~b:(List.length v.members) ~c:0
        ~d:0 ~e:(Flight.pack_ring v.view_id) ~f:0 ~g:0 ~h:0 ~i:0;
      t.view_cb ~at:node ~now:cursor v;
      interpret t node rest ~cursor
  | Participant.Arm_timer (timer, delay) :: rest ->
      sched_timer t (cursor + delay) node timer;
      interpret t node rest ~cursor
  | Participant.Disarm_timer timer :: rest ->
      cancel_timer t node timer;
      interpret t node rest ~cursor

(* One delivery, and the copies of it that follow: a daemon hands one
   ordered message to each local recipient as the same [Deliver] action
   repeated. Each copy costs the CPU its delivery; the record of every
   copy after the first says so ([d] = 1), so a checker judges each
   ordered message once per node. *)
and deliver t node d rest ~copy ~cursor =
  let cursor = cursor + t.tiers.(node).Profile.deliver_ns in
  Flight.record_at ~ns:cursor ~node ~code:Flight.ev_app_deliver ~a:d.seq ~b:d.pid
    ~c:(Message.service_tag d.service) ~d:copy ~e:(Flight.pack_ring d.d_ring) ~f:0
    ~g:0 ~h:0 ~i:0;
  t.deliver_cb ~at:node ~now:cursor d;
  match rest with
  | Participant.Deliver d' :: rest when d' == d -> deliver t node d rest ~copy:1 ~cursor
  | _ -> interpret t node rest ~cursor

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

(* Pop the minimum event and copy its fields out, so the handlers may
   schedule into (and reuse) its freed slot, then dispatch. *)
let step t =
  t.now <- Event_heap.top_at t.events;
  t.now_seq <- Event_heap.top_seq t.events;
  let e = t.arena.(Event_heap.pop_exn t.events) in
  let node = e.node and msg = e.msg and timer = e.timer and fn = e.fn in
  e.msg <- dummy_msg;
  e.timer <- No_timer;
  e.fn <- ignore;
  t.events_dispatched <- t.events_dispatched + 1;
  match e.kind with
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
  | Call -> fn ()

let create ~net ~tiers ~participants ?(seed = 1L) () =
  let n = Array.length participants in
  if Array.length tiers <> n then
    invalid_arg "Netsim.create: tiers and participants must align";
  let t =
    {
      net;
      tiers;
      parts = participants;
      events = Event_heap.create ();
      arena = [||];
      event_seq = 0;
      now = 0;
      now_seq = 0;
      prng = Prng.create ~seed;
      nic_free = Array.make n 0;
      ports =
        Array.init n (fun _ ->
            { fifo = [||]; head = 0; queued = 0; bytes = 0; free_at = 0 });
      cpu_busy = Array.make n 0;
      cpu_scheduled = Array.make n false;
      alive = Array.make n true;
      classes = Array.make n 0;
      class_latency = [| [| 0 |] |];
      domains = None;
      drop = (fun ~src:_ ~dst:_ _ -> false);
      deliver_cb = (fun ~at:_ ~now:_ _ -> ());
      view_cb = (fun ~at:_ ~now:_ _ -> ());
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
      events_dispatched = 0;
      events_pending_peak = 0;
    }
  in
  (* Flight record stamps follow the simulated clock while this simulator
     is the active runtime. *)
  Flight.set_clock (fun () -> t.now);
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
  c "netsim.timers_superseded" t.timers_superseded;
  c "netsim.events" t.events_dispatched;
  c "netsim.events_pending_peak" t.events_pending_peak

let rec run_until t horizon =
  if
    (not (Event_heap.is_empty t.events))
    && Event_heap.top_at t.events <= horizon
  then begin
    step t;
    run_until t horizon
  end
  else t.now <- max t.now horizon
