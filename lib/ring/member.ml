open Aring_wire
module Deque = Aring_util.Deque
module Flight = Aring_obs.Flight

type memb_timer_kind =
  | Join_retransmit
  | Consensus_timeout
  | Formation_timeout
  | Merge_probe
  | Exchange_recheck
  | Flood_burst

type Participant.timer += Memb_timer of memb_timer_kind

let log = Logs.Src.create "accelring.member" ~doc:"Membership algorithm"

module Log = (val Logs.src_log log : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Sorted pid-list set helpers                                         *)

let set_of l = List.sort_uniq compare l
let set_union a b = set_of (a @ b)
let set_mem = List.mem
let set_diff a b = List.filter (fun x -> not (List.mem x b)) a
let set_equal a b = set_of a = set_of b

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)

type gather = {
  mutable proc_set : Types.pid list;  (* sorted *)
  mutable fail_set : Types.pid list;  (* sorted *)
  joins : (Types.pid, Message.join) Hashtbl.t;
  heard : (Types.pid, unit) Hashtbl.t;
      (* Processes whose join arrived since the last consensus timeout.
         The silent-process check runs against this, not [joins]: a
         crashed process whose pre-crash join still sits in [joins]
         must not stay immune to failure detection forever. *)
  mutable agreed : bool;  (* consensus reached, waiting for commit token *)
  mutable settled : bool;
      (* Consensus may only conclude after one join-retransmit interval:
         processes detect the failure at slightly different times, and
         concluding immediately would form a ring that excludes the
         laggards (they would merge back in, but with churn). *)
}

type commit_phase = {
  cp_ring : Types.ring_id;
  cp_order : Types.pid array;
}

(* The recovery flood of one old ring: its exchange table, and the
   messages this node sends from it in paced bursts, first as the
   designated holder and then in answer to nacks. [Recover] holds it
   while the exchange runs, and [install] moves the same record into
   [t.residual]. A member must install as soon as it verifies
   completeness — holding the pass-4 token while its own paced flood
   queue drains stalls the new ring's token rotation past the token-loss
   timeout and kills the formation — so it keeps bursting (and answering
   pass-5 nacks) for peers still recovering the old ring while it is
   already operational, until the flood has been quiet for one formation
   timeout. *)
type flood = {
  ring : Types.ring_id;  (* the exchanged (pre-install) ring *)
  memb : Message.member_info list;  (* the commit token's, for holder election *)
  exchange : (Types.seqno, Message.data) Hashtbl.t;
  q : Types.seqno Deque.t;
      (* Exchange messages to send, ascending for the designated ones;
         drained in paced bursts by the [Flood_burst] timer, armed for
         the next burst exactly while [q] is not empty (after the
         install, an empty [q]'s timer counts out the quiet interval). *)
  queued : (Types.seqno, unit) Hashtbl.t;  (* membership of [q] *)
  nacked : (Types.seqno, int) Hashtbl.t;
      (* How many cumulative nacks have named each seqno. The k-th nack
         is answered by the k-th candidate holder, so a crashed donor is
         routed around without any extra agreement round. *)
}

type recover = {
  r_ring : Types.ring_id;
  r_order : Types.pid array;
  r_survivors : Types.pid list;  (* of my old ring, sorted *)
  r_min_aru : Types.seqno;
  r_max_high : Types.seqno;
  r_flood : flood;
  mutable r_pending : Message.commit option;
      (* A pass-4 commit held back while late recovery floods arrive. *)
  mutable r_rechecks : int;
}

type phase =
  | Operational of Node.t
  | Gather of gather
  | Commit_wait of commit_phase
  | Recover of recover

type t = {
  params : Params.t;
  me : Types.pid;
  initial_ring : Types.pid array option;
  mutable phase : phase;
  mutable residual : flood option;
      (* The last install's flood, while operational and until it has
         been quiet for one formation timeout. *)
  mutable old_node : Node.t option;  (* engine of the dying configuration *)
  mutable old_ring : Types.ring_id;  (* ring I was last operational in *)
  mutable old_delivered : Types.seqno;  (* its delivery cursor *)
  mutable highest_ring_seq : int;
  mutable join_seq : int;
  mutable last_view : Participant.view option;
  mutable installs : int;
  known_rings : (Types.ring_id, unit) Hashtbl.t;  (* superseded rings *)
  seen_join_seq : (Types.pid, int) Hashtbl.t;
  client_pending : (Types.service * bytes) Queue.t;
  inbox : Message.t Deque.t;  (* receive queue outside Operational *)
  stash : (Types.seqno, Message.data) Hashtbl.t;  (* old-ring data *)
}

let me t = t.me
let installs t = t.installs
let current_view t = t.last_view

let node t = match t.phase with Operational n -> Some n | _ -> None
let holds_residual_flood t = Option.is_some t.residual

let phase_code t =
  match t.phase with
  | Operational _ -> Flight.phase_operational
  | Gather _ -> Flight.phase_gather
  | Commit_wait _ -> Flight.phase_commit
  | Recover _ -> Flight.phase_recover

let state_name t = Flight.phase_name (phase_code t)

let arm kind delay = Participant.Arm_timer (Memb_timer kind, delay)

(* Every membership key's disarm, built once. *)
let disarm_memb =
  List.map
    (fun kind -> Participant.Disarm_timer (Memb_timer kind))
    [ Join_retransmit; Consensus_timeout; Formation_timeout; Merge_probe;
      Exchange_recheck; Flood_burst ]

(* Enter [phase], whose first actions are [actions]. The phase record
   reaches the health watchdog and, when a sink is installed, the trace
   stream as a [Phase] event. Every membership key is disarmed ahead of
   [actions], so no timer a past phase armed outlives it. *)
let enter t phase actions =
  t.phase <- phase;
  Flight.record ~node:t.me ~code:Flight.ev_phase ~a:(phase_code t)
    ~b:t.join_seq ~c:0 ~d:0;
  disarm_memb @ actions

(* Recovery flood pacing: a designated holder multicasts at most
   [recovery_burst_msgs] messages per burst, bursts [recovery_burst_gap_ns]
   apart, so a small switch buffer drains between them; the gap also
   scales the per-ring-position stagger of the first burst. Chosen, not
   measured. *)
let recovery_burst_msgs = 8
let recovery_burst_gap_ns = 400_000

(* The residual flood's quiet interval: a [Flood_burst] that finds the
   queue still empty one formation timeout later releases the flood. *)
let arm_quiet t = arm Flood_burst t.params.Params.consensus_timeout_ns

let create ~params ~me ?initial_ring () =
  let singleton_ring : Types.ring_id = { rep = me; ring_seq = 0 } in
  {
    params;
    me;
    initial_ring;
    phase =
      Gather
        {
          proc_set = [ me ];
          fail_set = [];
          joins = Hashtbl.create 8;
          heard = Hashtbl.create 8;
          agreed = false;
          settled = false;
        };
    residual = None;
    old_node = None;
    old_ring = singleton_ring;
    old_delivered = 0;
    highest_ring_seq = 0;
    join_seq = 0;
    last_view = None;
    installs = 0;
    known_rings = Hashtbl.create 8;
    seen_join_seq = Hashtbl.create 8;
    client_pending = Queue.create ();
    inbox = Deque.create ();
    stash = Hashtbl.create 64;
  }

(* A member may only install once it holds every exchange-range message
   some survivor of its old ring advertised (above what it already
   delivered) — otherwise survivors' delivered sets could diverge. *)
let missing_from_exchange t (r : recover) holds =
  match
    List.find_opt (fun (ring, _) -> Types.ring_id_equal ring t.old_ring) holds
  with
  | None -> []
  | Some (_, seqs) ->
      List.filter
        (fun seq ->
          seq > t.old_delivered && not (Hashtbl.mem r.r_flood.exchange seq))
        seqs

(* ------------------------------------------------------------------ *)
(* Gather                                                              *)

let rec my_join t (g : gather) : Message.join =
  { j_pid = t.me; proc_set = g.proc_set; fail_set = g.fail_set; join_seq = t.join_seq }

and multicast_join t g = Participant.Multicast (Message.Join (my_join t g))

(* Leave the operational (or any) state and start gathering. Leaving
   [Operational] also tears the node down: its timers are disarmed and
   the residual flood is dropped. *)
and enter_gather t =
  t.join_seq <- t.join_seq + 1;
  let node_disarms =
    match t.phase with
    | Operational node ->
        (* Preserve the dying configuration: its engine holds the messages
           recovery will exchange; unprocessed queued data still counts as
           received for that purpose. *)
        let engine = Node.engine node in
        t.old_node <- Some node;
        t.old_ring <- Engine.ring_id engine;
        t.old_delivered <- Engine.delivered_upto engine;
        Hashtbl.replace t.known_rings t.old_ring ();
        let rec drain () =
          match Node.take_next node with
          | None -> ()
          | Some (Message.Data d) ->
              if Types.ring_id_equal d.d_ring t.old_ring then
                Hashtbl.replace t.stash d.seq d;
              drain ()
          | Some (Message.Token _ | Message.Join _ | Message.Commit _) ->
              drain ()
        in
        drain ();
        List.iter
          (fun entry -> Queue.push entry t.client_pending)
          (Engine.drain_pending engine);
        t.residual <- None;
        Node.disarm_timers
    | Gather _ | Commit_wait _ | Recover _ -> []
  in
  let g =
    {
      proc_set = [ t.me ];
      fail_set = [];
      joins = Hashtbl.create 8;
      heard = Hashtbl.create 8;
      agreed = false;
      settled = false;
    }
  in
  Hashtbl.replace g.joins t.me (my_join t g);
  Log.debug (fun m -> m "pid %d entering gather (join_seq %d)" t.me t.join_seq);
  enter t (Gather g)
    (node_disarms
    @ [
        multicast_join t g;
        arm Join_retransmit t.params.join_retransmit_ns;
        arm Consensus_timeout t.params.consensus_timeout_ns;
      ])

(* ------------------------------------------------------------------ *)
(* Formation helpers                                                   *)

and members_of g = set_diff g.proc_set g.fail_set

and consensus_reached t g =
  let members = members_of g in
  List.for_all
    (fun p ->
      match Hashtbl.find_opt g.joins p with
      | Some (j : Message.join) ->
          set_equal j.proc_set g.proc_set && set_equal j.fail_set g.fail_set
      | None -> false)
    members
  && List.length members > 1
  && set_mem t.me members

(* My slot of the commit token: what I know about my old configuration. *)
and my_member_info t : Message.member_info =
  let stash_high = Hashtbl.fold (fun seq _ acc -> max seq acc) t.stash 0 in
  match t.old_node with
  | Some node ->
      let e = Node.engine node in
      {
        m_pid = t.me;
        m_old_ring = t.old_ring;
        m_aru = Engine.local_aru e;
        m_high_seq = max (Engine.high_seq e) stash_high;
        m_high_delivered = Engine.delivered_upto e;
      }
  | None ->
      {
        m_pid = t.me;
        m_old_ring = t.old_ring;
        m_aru = 0;
        m_high_seq = stash_high;
        m_high_delivered = 0;
      }

and successor_in order me =
  let n = Array.length order in
  let rec find i = if order.(i) = me then order.((i + 1) mod n) else find (i + 1) in
  find 0

(* The representative proposes the ring and launches commit pass 1. *)
and propose t g =
  let members = members_of g in
  let order = Array.of_list members in
  t.highest_ring_seq <- t.highest_ring_seq + 1;
  let new_ring : Types.ring_id = { rep = t.me; ring_seq = t.highest_ring_seq } in
  let placeholder p : Message.member_info =
    {
      m_pid = p;
      m_old_ring = { rep = p; ring_seq = 0 };
      m_aru = 0;
      m_high_seq = 0;
      m_high_delivered = 0;
    }
  in
  let memb =
    List.map (fun p -> if p = t.me then my_member_info t else placeholder p) members
  in
  let commit : Message.commit =
    { c_ring = new_ring; c_token_id = 0; c_pass = 1; c_memb = memb; c_holds = [] }
  in
  Log.debug (fun m ->
      m "pid %d proposing %a with %d members" t.me Types.pp_ring_id new_ring
        (List.length members));
  enter t
    (Commit_wait { cp_ring = new_ring; cp_order = order })
    [
      Participant.Unicast (successor_in order t.me, Message.Commit commit);
      arm Formation_timeout t.params.consensus_timeout_ns;
    ]

(* Consensus check, run after every join and on the consensus timeout. *)
and check_consensus t g =
  if (not g.agreed) && g.settled && consensus_reached t g then begin
    g.agreed <- true;
    let members = members_of g in
    if List.hd members = t.me then propose t g
    else
      (* Wait for the representative's commit token. The still-armed
         consensus timer doubles as the escape hatch: if it fires while we
         are agreed but uncommitted, we re-gather. *)
      []
  end
  else []

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)

and stale_join t (j : Message.join) =
  match Hashtbl.find_opt t.seen_join_seq j.j_pid with
  | Some seen -> j.join_seq < seen
  | None -> false

and note_join t (j : Message.join) =
  Hashtbl.replace t.seen_join_seq j.j_pid
    (max j.join_seq
       (Option.value ~default:0 (Hashtbl.find_opt t.seen_join_seq j.j_pid)))

and handle_join t (j : Message.join) =
  if stale_join t j || set_mem t.me j.fail_set then []
  else begin
    note_join t j;
    match t.phase with
    | Operational node ->
        let engine = Node.engine node in
        let members = Array.to_list (Engine.ring engine) in
        let probe_from_own_ring =
          set_mem j.j_pid members && set_equal j.proc_set members
        in
        if probe_from_own_ring then []
        else begin
          let actions = enter_gather t in
          actions @ handle_join t j
        end
    | Gather g ->
        Hashtbl.replace g.joins j.j_pid j;
        Hashtbl.replace g.heard j.j_pid ();
        let proc' = set_union g.proc_set (j.j_pid :: j.proc_set) in
        let fail' = set_diff (set_union g.fail_set j.fail_set) [ t.me ] in
        let changed =
          (not (set_equal proc' g.proc_set)) || not (set_equal fail' g.fail_set)
        in
        g.proc_set <- proc';
        g.fail_set <- fail';
        if changed then begin
          g.agreed <- false;
          Hashtbl.replace g.joins t.me (my_join t g);
          multicast_join t g :: check_consensus t g
        end
        else check_consensus t g
    | Commit_wait _ | Recover _ ->
        (* Formation in progress; late joiners keep retransmitting and are
           merged right after installation. *)
        []
  end

(* ------------------------------------------------------------------ *)
(* Installation (EVS delivery)                                         *)

and install t (r : recover) =
  let fl = r.r_flood in
  let transitional : Participant.view =
    { view_id = r.r_ring; members = r.r_survivors; transitional = true }
  in
  (* Old-ring messages recovered by the exchange, beyond what was already
     delivered, in sequence order. After a complete exchange all survivors
     hold the same set, so every survivor delivers the same sequence. *)
  let old_deliveries =
    Hashtbl.fold (fun seq d acc -> (seq, d) :: acc) fl.exchange []
    |> List.filter (fun (seq, _) -> seq > t.old_delivered)
    |> List.sort compare
    |> List.map (fun (_, d) -> Participant.Deliver d)
  in
  List.iter (fun (mi : Message.member_info) ->
      Hashtbl.replace t.known_rings mi.m_old_ring ())
    fl.memb;
  Hashtbl.replace t.known_rings t.old_ring ();
  (* The flood moves across the install (see [flood]). Entering
     [Operational] disarms its pending burst with every other membership
     key, so the burst is re-armed; an empty queue starts the quiet
     interval at once. *)
  t.residual <- Some fl;
  t.old_node <- None;
  t.old_delivered <- 0;
  Hashtbl.reset t.stash;
  let started = operate t r.r_ring r.r_order in
  Log.info (fun m ->
      m "pid %d installed %a (%d members, %d survivors)" t.me Types.pp_ring_id
        r.r_ring (Array.length r.r_order)
        (List.length r.r_survivors));
  let residual_timer =
    if Deque.is_empty fl.q then arm_quiet t else arm Flood_burst 1
  in
  (Participant.Deliver_config transitional :: old_deliveries)
  @ started @ [ residual_timer ]

(* Enter [Operational] in a new node for [ring_id], whose members in ring
   order are [order]: the end of every install, and [start]'s pre-agreed
   ring. Returns the disarms of every membership key, the regular view's
   delivery, the node's first actions and the representative's merge
   probe. Client messages submitted while no ring was installed (during
   a formation, or before [start]) carry over into the new node. *)
and operate t (ring_id : Types.ring_id) order =
  let view : Participant.view =
    { view_id = ring_id; members = Array.to_list order; transitional = false }
  in
  t.old_ring <- ring_id;
  t.highest_ring_seq <- max t.highest_ring_seq ring_id.ring_seq;
  t.installs <- t.installs + 1;
  t.last_view <- Some view;
  let node = Node.create ~params:t.params ~ring_id ~ring:order ~me:t.me in
  Queue.iter (fun (service, payload) -> Node.submit node service payload)
    t.client_pending;
  Queue.clear t.client_pending;
  let probe =
    if ring_id.rep = t.me then [ arm Merge_probe t.params.merge_probe_ns ]
    else []
  in
  enter t (Operational node)
    ((Participant.Deliver_config view :: Node.start node) @ probe)

(* A member alone at the consensus timeout installs a singleton ring
   without any commit/recover exchange. *)
and install_singleton t =
  t.highest_ring_seq <- t.highest_ring_seq + 1;
  let ring_id : Types.ring_id = { rep = t.me; ring_seq = t.highest_ring_seq } in
  let info = my_member_info t in
  let exchange = Hashtbl.create 16 in
  (match t.old_node with
  | Some node ->
      let e = Node.engine node in
      for seq = t.old_delivered + 1 to info.m_high_seq do
        match Engine.buffered_message e seq with
        | Some d -> Hashtbl.replace exchange seq d
        | None -> ()
      done
  | None -> ());
  Hashtbl.iter (fun seq d -> Hashtbl.replace exchange seq d) t.stash;
  install t
    {
      r_ring = ring_id;
      r_order = [| t.me |];
      r_survivors = [ t.me ];
      r_min_aru = info.m_aru;
      r_max_high = info.m_high_seq;
      r_flood = new_flood t [ info ] exchange;
      r_pending = None;
      r_rechecks = 0;
    }

and new_flood t memb exchange =
  {
    ring = t.old_ring;
    memb;
    exchange;
    q = Deque.create ();
    queued = Hashtbl.create 16;
    nacked = Hashtbl.create 16;
  }

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* Entering recovery: stage everything we hold beyond our own delivery
   cursor — messages below the minimum aru are already received by every
   survivor but possibly still undelivered here, and must be delivered at
   installation too — and queue for flooding the exchange-range messages
   (above the minimum aru) this node is the designated holder of.

   The flood itself is deduplicated and paced: per sequence number exactly
   one survivor (the highest-pid holder, computed identically everywhere
   from the commit token's member infos) floods it, in bursts of
   [recovery_burst_msgs] spaced [recovery_burst_gap_ns] apart, with the
   first burst staggered by ring position. *)
and enter_recover t (c : Message.commit) order =
  let survivors, min_aru, max_high =
    List.fold_left
      (fun (survivors, min_aru, max_high) (mi : Message.member_info) ->
        if Types.ring_id_equal mi.m_old_ring t.old_ring then
          (mi.m_pid :: survivors, min min_aru mi.m_aru, max max_high mi.m_high_seq)
        else (survivors, min_aru, max_high))
      ([], max_int, 0) c.c_memb
  in
  let survivors = set_of survivors in
  let fl = new_flood t c.c_memb (Hashtbl.create 64) in
  let held seq =
    match Hashtbl.find_opt t.stash seq with
    | Some d -> Some d
    | None -> (
        match t.old_node with
        | Some node -> Engine.buffered_message (Node.engine node) seq
        | None -> None)
  in
  let held_in_range = ref 0 in
  let queued = ref 0 in
  (* Stage from the lower of (what we still need to deliver) and (what a
     lagging survivor may be missing): a survivor that already delivered a
     message must still hold it for peers below the minimum aru line. *)
  let lo = min t.old_delivered min_aru in
  if max_high > 0 then
    for seq = max_high downto lo + 1 do
      match held seq with
      | Some d ->
          Hashtbl.replace fl.exchange seq d;
          if seq > min_aru then begin
            incr held_in_range;
            if
              Recovery.designated ~infos:c.c_memb ~old_ring:t.old_ring seq
              = Some t.me
            then begin
              (* Descending loop + push_front = ascending flood order. *)
              Deque.push_front fl.q seq;
              Hashtbl.replace fl.queued seq ();
              incr queued
            end
          end
      | None -> ()
    done;
  let pos =
    let rec idx i = function
      | [] -> 0
      | p :: _ when p = t.me -> i
      | _ :: tl -> idx (i + 1) tl
    in
    idx 0 survivors
  in
  let r =
    {
      r_ring = c.c_ring;
      r_order = order;
      r_survivors = survivors;
      r_min_aru = min_aru;
      r_max_high = max_high;
      r_flood = fl;
      r_pending = None;
      r_rechecks = 0;
    }
  in
  let burst =
    if Deque.is_empty fl.q then []
    else [ arm Flood_burst (1 + (pos * (recovery_burst_gap_ns / 4))) ]
  in
  let actions =
    enter t (Recover r) (burst @ [ arm Formation_timeout t.params.consensus_timeout_ns ])
  in
  Flight.record ~node:t.me ~code:Flight.ev_flood ~a:!queued ~b:min_aru
    ~c:max_high ~d:0;
  Flight.record ~node:t.me ~code:Flight.ev_dedup ~a:!held_in_range ~b:!queued
    ~c:(!held_in_range - !queued) ~d:pos;
  (r, actions)

(* ------------------------------------------------------------------ *)
(* Commit token                                                        *)

(* Retransmission requests ride the commit channel as a sentinel pass 5
   (the pass field is a full integer on the wire, so no codec change):
   [c_memb] identifies the requester, [c_holds] carries its missing
   sequence numbers as compacted [lo;hi;...] ranges for its old ring.
   Each survivor counts how many nacks have named each seqno and answers
   as the k-th candidate holder for the k-th nack — exactly one resender
   per request when views agree, rotating past crashed donors. A member
   answers from the flood of the ring it is recovering or, once
   installed, from the flood it carried across the install until that
   flood goes quiet, so a straggling peer can finish without forcing a
   re-gather. *)
and handle_nack t (c : Message.commit) =
  let flood =
    match t.phase with
    | Recover r when Types.ring_id_equal r.r_ring c.c_ring -> Some r.r_flood
    | Operational _ -> t.residual
    | Gather _ | Commit_wait _ | Recover _ ->
        (* Not recovering the requester's ring: the formation-timeout
           re-gather is the backstop. *)
        None
  in
  match (flood, c.c_memb) with
  | Some fl, [ requester ]
    when requester.m_pid <> t.me
         && Types.ring_id_equal requester.m_old_ring fl.ring ->
      let seqs =
        List.concat_map
          (fun (ring, encoded) ->
            if Types.ring_id_equal ring fl.ring then
              Recovery.expand (Recovery.decode_ranges encoded)
            else [])
          c.c_holds
      in
      let idle = Deque.is_empty fl.q in
      let queued = ref 0 in
      List.iter
        (fun seq ->
          let k = 1 + Option.value ~default:0 (Hashtbl.find_opt fl.nacked seq) in
          Hashtbl.replace fl.nacked seq k;
          (* First nack: only the k-th candidate answers (covers a
             dropped flood without duplication). Repeated nacks mean the
             info-based election keeps pointing at nodes that discarded
             the message as stable — every actual holder answers,
             trading a few duplicates for a bounded number of rounds. *)
          if
            Hashtbl.mem fl.exchange seq
            && (not (Hashtbl.mem fl.queued seq))
            && (k >= 2
               || Recovery.designated_nth ~infos:fl.memb ~old_ring:fl.ring
                    ~nth:(k - 1) seq
                  = Some t.me)
          then begin
            Deque.push_back fl.q seq;
            Hashtbl.replace fl.queued seq ();
            incr queued
          end)
        seqs;
      if !queued = 0 then []
      else begin
        Flight.record ~node:t.me ~code:Flight.ev_resend ~a:!queued
          ~b:(List.length seqs) ~c:0 ~d:0;
        (* An idle flood bursts at once, superseding any quiet timer:
           resends skip the position stagger, as the requester has
           already waited out a recheck interval. *)
        if idle then [ arm Flood_burst 1 ] else []
      end
  | _ -> []

and handle_commit t (c : Message.commit) =
  if c.c_pass = 5 then handle_nack t c
  else begin
  let memb_pids = List.map (fun (mi : Message.member_info) -> mi.m_pid) c.c_memb in
  if not (set_mem t.me memb_pids) then []
  else begin
    t.highest_ring_seq <- max t.highest_ring_seq c.c_ring.ring_seq;
    let order = Array.of_list memb_pids in
    let forward ?(holds = c.c_holds) pass memb =
      Participant.Unicast
        (successor_in order t.me,
         Message.Commit
           {
             c with
             c_token_id = c.c_token_id + 1;
             c_pass = pass;
             c_memb = memb;
             c_holds = holds;
           })
    in
    (* Merge the exchange-range sequence numbers we hold into the pass-3
       accumulator for our old ring. *)
    let merged_holds (r : recover) =
      let mine =
        Hashtbl.fold (fun seq _ acc -> seq :: acc) r.r_flood.exchange []
      in
      let rec update = function
        | [] -> [ (t.old_ring, List.sort_uniq compare mine) ]
        | (ring, seqs) :: rest ->
            if Types.ring_id_equal ring t.old_ring then
              (ring, List.sort_uniq compare (mine @ seqs)) :: rest
            else (ring, seqs) :: update rest
      in
      update c.c_holds
    in
    let i_am_rep = c.c_ring.rep = t.me in
    match (c.c_pass, t.phase) with
    | 1, Commit_wait cp when i_am_rep && Types.ring_id_equal cp.cp_ring c.c_ring ->
        (* Pass 1 returned: everyone filled their slot; spread the full
           picture (pass 2) and enter recovery ourselves. *)
        let r, actions = enter_recover t c order in
        ignore r;
        forward 2 c.c_memb :: actions
    | 1, Gather _ ->
        (* Fill my slot and pass it on. *)
        let memb =
          List.map
            (fun (mi : Message.member_info) ->
              if mi.m_pid = t.me then my_member_info t else mi)
            c.c_memb
        in
        enter t
          (Commit_wait { cp_ring = c.c_ring; cp_order = order })
          [ forward 1 memb; arm Formation_timeout t.params.consensus_timeout_ns ]
    | 2, Commit_wait cp when Types.ring_id_equal cp.cp_ring c.c_ring ->
        if i_am_rep then
          (* Our own pass 2 returned before we entered recovery; recover
             now and launch pass 3 (exchange barrier) with our holds. *)
          let r, actions = enter_recover t c order in
          (forward ~holds:(merged_holds r) 3 c.c_memb :: actions)
        else begin
          let _, actions = enter_recover t c order in
          forward 2 c.c_memb :: actions
        end
    | 2, Recover r when i_am_rep && Types.ring_id_equal r.r_ring c.c_ring ->
        [ forward ~holds:(merged_holds r) 3 c.c_memb ]
    | 3, Recover r when Types.ring_id_equal r.r_ring c.c_ring ->
        if i_am_rep then
          (* Pass 3 returned with the union of held messages: every member
             flooded. Pass 4 verifies completeness and installs. *)
          [ forward 4 c.c_memb ]
        else [ forward ~holds:(merged_holds r) 3 c.c_memb ]
    | 4, Recover r when Types.ring_id_equal r.r_ring c.c_ring ->
        if missing_from_exchange t r c.c_holds = [] then
          (* Complete. Install immediately even if our own flood queue is
             still draining — the queue survives the install as [residual]
             work, so peers still recovering are served while the new
             ring's token starts rotating. Holding pass 4 here instead
             would stall the already-installed members past token loss. *)
          if i_am_rep then install t r
          else forward 4 c.c_memb :: install t r
        else begin
          (* Some advertised messages have not arrived (floods still in
             flight, or lost). Hold the commit token and re-check shortly;
             the recheck requests retransmission of whatever is still
             missing, and gives up into a re-gather only after repeated
             nacks go unanswered. *)
          r.r_pending <- Some c;
          [ arm Exchange_recheck t.params.token_retransmit_ns ]
        end
    | _ ->
        (* Stale or duplicate commit traffic. *)
        []
  end
  end

(* ------------------------------------------------------------------ *)
(* Data and token routing                                              *)

(* [msg] is [Message.Data d], handed on to the node as it came. *)
and handle_data t msg (d : Message.data) =
  match t.phase with
  | Operational node ->
      let engine = Node.engine node in
      if Types.ring_id_equal d.d_ring (Engine.ring_id engine) then
        Node.process node msg
      else if Hashtbl.mem t.known_rings d.d_ring then []
      else
        (* Traffic from an unknown configuration: a merge candidate. *)
        enter_gather t
  | Gather _ | Commit_wait _ ->
      if Types.ring_id_equal d.d_ring t.old_ring then
        Hashtbl.replace t.stash d.seq d;
      []
  | Recover r ->
      if
        Types.ring_id_equal d.d_ring t.old_ring
        && d.seq > r.r_min_aru
        && d.seq <= r.r_max_high
      then begin
        Hashtbl.replace r.r_flood.exchange d.seq d;
        (* If this arrival completes a held pass-4 verification, install
           now instead of waiting out the next recheck tick — every
           millisecond the token is held brings the already-installed
           members closer to declaring token loss. *)
        match r.r_pending with
        | Some c when missing_from_exchange t r c.c_holds = [] ->
            r.r_pending <- None;
            handle_commit t c
        | Some _ | None -> []
      end
      else []

(* [msg] is [Message.Token tok], handed on to the node as it came. *)
and handle_token t msg (tok : Message.token) =
  match t.phase with
  | Operational node ->
      let engine = Node.engine node in
      if Types.ring_id_equal tok.t_ring (Engine.ring_id engine) then
        Node.process node msg
      else []
  | Gather _ | Commit_wait _ | Recover _ -> []

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)

(* Send one paced flood burst, in recovery or after the install: up to
   [recovery_burst_msgs] messages, re-arming the timer while work
   remains. Once the queue is empty the flood is quiescent, and the next
   nack re-arms it; after the install the timer meanwhile counts out the
   quiet interval that releases the flood. *)
let drain_burst t fl =
  let burst = ref [] in
  let sent = ref 0 in
  while !sent < recovery_burst_msgs && not (Deque.is_empty fl.q) do
    match Deque.pop_front fl.q with
    | None -> ()
    | Some seq -> (
        Hashtbl.remove fl.queued seq;
        match Hashtbl.find_opt fl.exchange seq with
        | Some d ->
            burst := Participant.Multicast (Message.Data d) :: !burst;
            incr sent
        | None -> ())
  done;
  let remaining = Deque.length fl.q in
  Flight.record ~node:t.me ~code:Flight.ev_burst ~a:!sent ~b:remaining ~c:0
    ~d:0;
  let follow =
    if remaining > 0 then [ arm Flood_burst recovery_burst_gap_ns ]
    else
      match t.phase with
      | Operational _ -> [ arm_quiet t ]
      | Gather _ | Commit_wait _ | Recover _ -> []
  in
  List.rev !burst @ follow

let fire_memb_timer t kind =
  match (kind, t.phase) with
  | Join_retransmit, Gather g ->
      g.settled <- true;
      multicast_join t g
      :: arm Join_retransmit t.params.join_retransmit_ns
      :: check_consensus t g
  | Consensus_timeout, Gather g ->
      g.settled <- true;
      let members = members_of g in
      if members = [ t.me ] then install_singleton t
      else if g.agreed then
        (* Agreed but the representative's commit token never came. *)
        enter_gather t
      else begin
        (* Declare silent processes failed and keep gathering. A live
           process re-joins at least once per consensus interval
           (validate enforces join_retransmit < consensus_timeout), so
           "no join since the previous timeout" is the failure signal —
           a stale pre-crash entry in [g.joins] grants no immunity. *)
        let silent =
          List.filter
            (fun p ->
              p <> t.me
              && (not (set_mem p g.fail_set))
              && not (Hashtbl.mem g.heard p))
            g.proc_set
        in
        Hashtbl.reset g.heard;
        let actions =
          if silent <> [] then begin
            g.fail_set <- set_diff (set_union g.fail_set silent) [ t.me ];
            g.agreed <- false;
            Hashtbl.replace g.joins t.me (my_join t g);
            multicast_join t g :: check_consensus t g
          end
          else check_consensus t g
        in
        actions @ [ arm Consensus_timeout t.params.consensus_timeout_ns ]
      end
  | Formation_timeout, (Gather _ | Commit_wait _ | Recover _) ->
      (* The commit token or the exchange stalled: start over. *)
      enter_gather t
  | Exchange_recheck, Recover r -> (
      match r.r_pending with
      | None -> []
      | Some c ->
          let missing = missing_from_exchange t r c.c_holds in
          if missing = [] then begin
            (* Only our own flood queue was in the way (or the last
               resends just landed): re-run the pass-4 decision. *)
            r.r_pending <- None;
            handle_commit t c
          end
          else begin
            r.r_rechecks <- r.r_rechecks + 1;
            Flight.record ~node:t.me ~code:Flight.ev_recheck
              ~a:r.r_rechecks ~b:t.join_seq ~c:0 ~d:0;
            if r.r_rechecks > 5 then begin
              (* Repeated nacks went unanswered: every candidate
                 holder is gone or partitioned away. This formation
                 attempt cannot install consistently. *)
              Flight.record ~node:t.me ~code:Flight.ev_recheck_giveup
                ~a:r.r_rechecks ~b:t.join_seq ~c:0 ~d:0;
              enter_gather t
            end
            else begin
              (* Keep holding the pass-4 token and ask the designated
                 holders to re-send what is still missing, as
                 compacted ranges on the commit channel (pass 5). *)
              let ranges = Recovery.compact missing in
              Flight.record ~node:t.me ~code:Flight.ev_nack
                ~a:(List.length missing) ~b:(List.length ranges)
                ~c:r.r_rechecks ~d:0;
              let nack : Message.commit =
                {
                  c_ring = r.r_ring;
                  c_token_id = 0;
                  c_pass = 5;
                  c_memb = [ my_member_info t ];
                  c_holds = [ (t.old_ring, Recovery.encode_ranges ranges) ];
                }
              in
              [
                Participant.Multicast (Message.Commit nack);
                arm Exchange_recheck t.params.token_retransmit_ns;
              ]
            end
          end)
  | Flood_burst, Recover r -> drain_burst t r.r_flood
  | Flood_burst, Operational _ -> (
      (* Finish serving the old ring's exchange after installing, for
         peers still recovering it; a fire that finds nothing queued
         ends the quiet interval and releases the flood. *)
      match t.residual with
      | Some fl when Deque.is_empty fl.q ->
          t.residual <- None;
          []
      | Some fl -> drain_burst t fl
      | None -> [])
  | Exchange_recheck, (Operational _ | Gather _ | Commit_wait _)
  | Flood_burst, (Gather _ | Commit_wait _) ->
      []
  | Merge_probe, Operational node ->
      let engine = Node.engine node in
      let members = Array.to_list (Engine.ring engine) in
      let probe : Message.join =
        { j_pid = t.me; proc_set = members; fail_set = []; join_seq = t.join_seq }
      in
      [
        Participant.Multicast (Message.Join probe);
        arm Merge_probe t.params.merge_probe_ns;
      ]
  | (Join_retransmit | Consensus_timeout), (Operational _ | Commit_wait _ | Recover _)
  | Formation_timeout, Operational _
  | Merge_probe, (Gather _ | Commit_wait _ | Recover _) ->
      []

let fire_timer t timer =
  match timer with
  | Memb_timer kind -> fire_memb_timer t kind
  | Node.Engine_timer kind -> (
      match t.phase with
      | Operational node -> (
          let actions = Node.fire_timer node timer in
          match kind with
          | Engine.Token_retransmit -> actions
          | Engine.Token_loss ->
              (* The node has recorded the loss and returned nothing:
                 leaving the ring is the membership algorithm's. *)
              enter_gather t)
      | Gather _ | Commit_wait _ | Recover _ -> [])
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Participant interface                                               *)

let submit t service payload =
  match t.phase with
  | Operational node -> Node.submit node service payload
  | Gather _ | Commit_wait _ | Recover _ ->
      Queue.push (service, payload) t.client_pending

let receive t msg =
  match t.phase with
  | Operational node -> (
      match msg with
      | Message.Data _ | Message.Token _ -> Node.receive node msg
      | Message.Join _ | Message.Commit _ ->
          Deque.push_back t.inbox msg;
          `Queued)
  | Gather _ | Commit_wait _ | Recover _ ->
      Deque.push_back t.inbox msg;
      `Queued

let has_work t =
  (not (Deque.is_empty t.inbox))
  || match t.phase with Operational node -> Node.has_work node | _ -> false

let take_next t =
  (* Membership traffic first: it is rare and must never starve behind a
     data backlog. *)
  match Deque.pop_front t.inbox with
  | Some _ as some -> some
  | None -> (
      match t.phase with
      | Operational node -> Node.take_next node
      | Gather _ | Commit_wait _ | Recover _ -> None)

let process t msg =
  match msg with
  | Message.Data d -> handle_data t msg d
  | Message.Token tok -> handle_token t msg tok
  | Message.Join j -> handle_join t j
  | Message.Commit c -> handle_commit t c

(* A pre-agreed ring is entered directly, as an install enters its ring. *)
let start t =
  match t.initial_ring with
  | Some ring -> operate t { rep = ring.(0); ring_seq = 1 } ring
  | None -> enter_gather t

let participant t : Participant.t =
  {
    pid = t.me;
    submit = (fun service payload -> submit t service payload);
    receive = (fun msg -> receive t msg);
    has_work = (fun () -> has_work t);
    take_next = (fun () -> take_next t);
    process = (fun msg -> process t msg);
    fire_timer = (fun timer -> fire_timer t timer);
    start = (fun () -> start t);
  }
