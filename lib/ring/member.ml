open Aring_wire
module Deque = Aring_util.Deque
module Flight = Aring_obs.Flight

type memb_timer_kind =
  | Join_retransmit
  | Consensus_timeout
  | Formation_timeout
  | Merge_probe

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

(* Recovery on the new ring's regular token. The new ring's node runs
   from commit pass 2 on: each old-ring message this member must supply
   rides it as [Recovered] data, under the token's window, fcc and rtr
   like any other message, and each one delivered lands in [r_exchange].
   The member installs at the second successive quiet visit (see
   [quiet_visit]). *)
type recover = {
  r_ring : Types.ring_id;
  r_order : Types.pid array;
  r_survivors : Types.pid list;  (* of my old ring, sorted *)
  r_node : Node.t;
  r_exchange : (Types.seqno, Message.data) Hashtbl.t;
      (* My old ring's messages to deliver at the install, by old seq:
         those held at entry, then those recovered on the new ring. *)
  mutable r_quiet : int;  (* successive quiet token visits *)
}

type phase =
  | Operational of Node.t
  | Gather of gather
  | Commit_wait of Types.ring_id  (* the proposed ring *)
  | Recover of recover

type t = {
  params : Params.t;
  me : Types.pid;
  initial_ring : Types.pid array option;
  mutable phase : phase;
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
  inbox : Message.t Deque.t;  (* membership traffic, served first *)
  stash : (Types.seqno, Message.data) Hashtbl.t;  (* old-ring data *)
}

let me t = t.me
let installs t = t.installs
let current_view t = t.last_view

let node t = match t.phase with Operational n -> Some n | _ -> None

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
    [ Join_retransmit; Consensus_timeout; Formation_timeout; Merge_probe ]

(* Enter [phase], whose first actions are [actions]. The phase record
   reaches the health watchdog and, when a sink is installed, the trace
   stream as a [Phase] event. Every membership key is disarmed ahead of
   [actions], so no timer a past phase armed outlives it. *)
let enter t phase actions =
  t.phase <- phase;
  Flight.record ~node:t.me ~code:Flight.ev_phase ~a:(phase_code t)
    ~b:t.join_seq ~c:0 ~d:0;
  disarm_memb @ actions

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

(* ------------------------------------------------------------------ *)
(* Gather                                                              *)

let rec my_join t (g : gather) : Message.join =
  { j_pid = t.me; proc_set = g.proc_set; fail_set = g.fail_set; join_seq = t.join_seq }

and multicast_join t g = Participant.Multicast (Message.Join (my_join t g))

(* Keep the old-ring data still queued at [node], whose messages go
   unprocessed: it counts as received for the next formation. *)
and stash_queued t node =
  match Node.take_next node with
  | None -> ()
  | Some (Message.Data d) ->
      if Types.ring_id_equal d.d_ring t.old_ring then
        Hashtbl.replace t.stash d.seq d;
      stash_queued t node
  | Some (Message.Token _ | Message.Join _ | Message.Commit _) ->
      stash_queued t node

(* Leave the operational (or any) state and start gathering. Leaving
   [Operational] or [Recover] also tears the node down: its timers are
   disarmed. *)
and enter_gather t =
  t.join_seq <- t.join_seq + 1;
  let node_disarms =
    match t.phase with
    | Operational node ->
        (* Preserve the dying configuration: its engine holds the messages
           recovery will exchange. *)
        let engine = Node.engine node in
        t.old_node <- Some node;
        t.old_ring <- Engine.ring_id engine;
        t.old_delivered <- Engine.delivered_upto engine;
        Hashtbl.replace t.known_rings t.old_ring ();
        stash_queued t node;
        List.iter
          (fun entry -> Queue.push entry t.client_pending)
          (Engine.drain_pending engine);
        Node.disarm_timers
    | Recover r ->
        (* The new ring was never installed here, so the old ring stays
           the one to recover, now with what this attempt recovered. *)
        Hashtbl.iter (fun seq d -> Hashtbl.replace t.stash seq d) r.r_exchange;
        stash_queued t r.r_node;
        Node.disarm_timers
    | Gather _ | Commit_wait _ -> []
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
    { c_ring = new_ring; c_token_id = 0; c_pass = 1; c_memb = memb }
  in
  Log.debug (fun m ->
      m "pid %d proposing %a with %d members" t.me Types.pp_ring_id new_ring
        (List.length members));
  enter t
    (Commit_wait new_ring)
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

(* Close the old ring: the transitional view of its [survivors] in
   [ring], then its messages in [exchange] this member has not yet
   delivered, in sequence order. Every survivor holds the same set by
   then, so every survivor delivers the same sequence. *)
and close_old_ring t ring survivors exchange =
  let transitional : Participant.view =
    { view_id = ring; members = survivors; transitional = true }
  in
  let old_deliveries =
    Hashtbl.fold (fun seq d acc -> (seq, d) :: acc) exchange []
    |> List.filter (fun (seq, _) -> seq > t.old_delivered)
    |> List.sort compare
    |> List.map (fun (_, d) -> Participant.Deliver d)
  in
  t.old_node <- None;
  t.old_delivered <- 0;
  Hashtbl.reset t.stash;
  Participant.Deliver_config transitional :: old_deliveries

and install t (r : recover) =
  let closing = close_old_ring t r.r_ring r.r_survivors r.r_exchange in
  Log.info (fun m ->
      m "pid %d installed %a (%d members, %d survivors)" t.me Types.pp_ring_id
        r.r_ring (Array.length r.r_order)
        (List.length r.r_survivors));
  closing @ operate t r.r_ring r.r_order r.r_node []

(* Enter [Operational] in [node], the node of [ring_id], whose members in
   ring order are [order]: the end of every install, and [start]'s
   pre-agreed ring. Returns the disarms of every membership key, the
   regular view's delivery, [first] and the representative's merge
   probe. Client messages submitted while no ring was installed (during
   a formation, or before [start]) carry over into the node. *)
and operate t (ring_id : Types.ring_id) order node first =
  let view : Participant.view =
    { view_id = ring_id; members = Array.to_list order; transitional = false }
  in
  t.old_ring <- ring_id;
  t.highest_ring_seq <- max t.highest_ring_seq ring_id.ring_seq;
  t.installs <- t.installs + 1;
  t.last_view <- Some view;
  Queue.iter (fun (service, payload) -> Node.submit node service payload)
    t.client_pending;
  Queue.clear t.client_pending;
  let probe =
    if ring_id.rep = t.me then [ arm Merge_probe t.params.merge_probe_ns ]
    else []
  in
  enter t (Operational node) ((Participant.Deliver_config view :: first) @ probe)

(* A member alone at the consensus timeout installs a singleton ring at
   once: it is its old ring's only survivor, so there is nothing to
   recover from anyone. *)
and install_singleton t =
  t.highest_ring_seq <- t.highest_ring_seq + 1;
  let ring_id : Types.ring_id = { rep = t.me; ring_seq = t.highest_ring_seq } in
  let exchange = Hashtbl.copy t.stash in
  (match t.old_node with
  | Some node ->
      let e = Node.engine node in
      for seq = t.old_delivered + 1 to Engine.high_seq e do
        match Engine.buffered_message e seq with
        | Some d -> Hashtbl.replace exchange seq d
        | None -> ()
      done
  | None -> ());
  let closing = close_old_ring t ring_id [ t.me ] exchange in
  let node = Node.create ~params:t.params ~ring_id ~ring:[| t.me |] ~me:t.me in
  closing @ operate t ring_id [| t.me |] node (Node.start node)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* Entering recovery on commit pass 2: build the new ring's node, stage
   everything held beyond our own delivery cursor — messages below the
   minimum aru are received by every survivor but possibly still
   undelivered here, and are delivered at the install too — and submit,
   as [Recovered] data, each exchange-range message (above the survivors'
   minimum aru) that this member must supply. A message at or below the
   survivors' highest aru has a sure holder, and only its designated
   holder ([Recovery.designated]) re-sends it. Above it no survivor is
   sure to hold it but its sender, which always keeps its own: the
   sender re-sends it if it survives, and every survivor holding it
   does if not. *)
and enter_recover t (c : Message.commit) order =
  let survivors, min_aru, max_aru, max_high =
    List.fold_left
      (fun ((survivors, min_aru, max_aru, max_high) as acc)
           (mi : Message.member_info) ->
        Hashtbl.replace t.known_rings mi.m_old_ring ();
        if Types.ring_id_equal mi.m_old_ring t.old_ring then
          ( mi.m_pid :: survivors,
            min min_aru mi.m_aru,
            max max_aru mi.m_aru,
            max max_high mi.m_high_seq )
        else acc)
      ([], max_int, 0, 0) c.c_memb
  in
  Hashtbl.replace t.known_rings c.c_ring ();
  let node = Node.create ~params:t.params ~ring_id:c.c_ring ~ring:order ~me:t.me in
  let exchange = Hashtbl.create 64 in
  let held seq =
    match Hashtbl.find_opt t.stash seq with
    | Some d -> Some d
    | None -> (
        match t.old_node with
        | Some node -> Engine.buffered_message (Node.engine node) seq
        | None -> None)
  in
  let held_in_range = ref 0 in
  let sent = ref 0 in
  (* Stage from the lower of (what we still need to deliver) and (what a
     lagging survivor may be missing): a survivor that already delivered a
     message must still hold it for peers below the minimum aru line. *)
  for seq = min t.old_delivered min_aru + 1 to max_high do
    match held seq with
    | Some d ->
        Hashtbl.replace exchange seq d;
        if seq > min_aru then begin
          incr held_in_range;
          if
            (if seq <= max_aru then
               Recovery.designated ~infos:c.c_memb ~old_ring:t.old_ring seq
               = Some t.me
             else d.pid = t.me || not (List.mem d.pid survivors))
          then begin
            Node.submit node Types.Recovered (Message.encode (Message.Data d));
            incr sent
          end
        end
    | None -> ()
  done;
  let r =
    {
      r_ring = c.c_ring;
      r_order = order;
      r_survivors = set_of survivors;
      r_node = node;
      r_exchange = exchange;
      r_quiet = 0;
    }
  in
  let actions = enter t (Recover r) (Node.start node) in
  Flight.record ~node:t.me ~code:Flight.ev_flood ~a:!sent ~b:min_aru
    ~c:max_high ~d:0;
  Flight.record ~node:t.me ~code:Flight.ev_dedup ~a:!held_in_range ~b:!sent
    ~c:(!held_in_range - !sent) ~d:0;
  actions

(* Take the [Recovered] deliveries out of the new ring's [actions]: each
   one carries an old-ring message, kept when the old ring is ours. *)
and take_recovered t (r : recover) actions =
  List.filter
    (function
      | Participant.Deliver { service = Types.Recovered; payload; _ } ->
          (match Message.decode_result payload with
          | Ok (Message.Data old) when Types.ring_id_equal old.d_ring t.old_ring ->
              Hashtbl.replace r.r_exchange old.seq old
          | Ok _ | Error _ -> ());
          false
      | _ -> true)
    actions

(* A visit is quiet when this member has nothing left to send, and the
   token it received shows nothing sent anywhere in the last rotation
   (fcc = 0), nothing missing (aru = seq) and nothing requested (rtr
   empty). Two quiet visits in a row prove that no member has a recovery
   message left and every member holds every one: a member still missing
   one lowers the aru, and one still holding back would have sent under
   an empty fcc. The install visit sends nothing new, and client
   messages go out from the next, so every member's next visit is quiet
   too: all members install within one rotation of the first. *)
and quiet_visit (r : recover) (tok : Message.token) =
  tok.fcc = 0 && tok.aru = tok.t_seq && tok.rtr = []
  && Engine.pending_count (Node.engine r.r_node) = 0

(* While recovering, every member's backlog is large at once, and a
   visit's burst can overfill a switch port ahead of the token; the token
   goes first, and data lost to a full port is the rtr's to repair. *)
and token_first actions =
  match
    List.partition
      (function Participant.Unicast (_, Message.Token _) -> true | _ -> false)
      actions
  with
  | [], _ -> actions
  | token, rest -> token @ rest

(* [msg] is [Message.Token tok] of the new ring. *)
and recover_visit t (r : recover) msg tok =
  let engine = Node.engine r.r_node in
  let round = Engine.round engine in
  let actions = take_recovered t r (Node.process r.r_node msg) in
  if Engine.round engine = round then actions (* a stale or duplicate token *)
  else begin
    let actions = token_first actions in
    r.r_quiet <- (if quiet_visit r tok then r.r_quiet + 1 else 0);
    if r.r_quiet < 2 then actions else actions @ install t r
  end

(* ------------------------------------------------------------------ *)
(* Commit token                                                        *)

and handle_commit t (c : Message.commit) =
  let memb_pids = List.map (fun (mi : Message.member_info) -> mi.m_pid) c.c_memb in
  if not (set_mem t.me memb_pids) then []
  else begin
    t.highest_ring_seq <- max t.highest_ring_seq c.c_ring.ring_seq;
    let order = Array.of_list memb_pids in
    let forward pass memb =
      Participant.Unicast
        (successor_in order t.me,
         Message.Commit
           { c with c_token_id = c.c_token_id + 1; c_pass = pass; c_memb = memb })
    in
    let i_am_rep = c.c_ring.rep = t.me in
    match (c.c_pass, t.phase) with
    | 1, Commit_wait ring when i_am_rep && Types.ring_id_equal ring c.c_ring ->
        (* Pass 1 returned: everyone filled their slot; spread the full
           picture. *)
        [ forward 2 c.c_memb ]
    | 1, Gather _ ->
        (* Fill my slot and pass it on. *)
        let memb =
          List.map
            (fun (mi : Message.member_info) ->
              if mi.m_pid = t.me then my_member_info t else mi)
            c.c_memb
        in
        enter t
          (Commit_wait c.c_ring)
          [ forward 1 memb; arm Formation_timeout t.params.consensus_timeout_ns ]
    | 2, Commit_wait ring when Types.ring_id_equal ring c.c_ring ->
        (* Every member recovers from pass 2 on. The representative's pass
           2 has been all the way round, so its node's first token reaches
           members already recovering. *)
        if i_am_rep then enter_recover t c order
        else forward 2 c.c_memb :: enter_recover t c order
    | _ ->
        (* Stale or duplicate commit traffic. *)
        []
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
  | Recover r when Types.ring_id_equal d.d_ring r.r_ring ->
      take_recovered t r (Node.process r.r_node msg)
  | Gather _ | Commit_wait _ | Recover _ ->
      if Types.ring_id_equal d.d_ring t.old_ring then
        Hashtbl.replace t.stash d.seq d;
      []

(* [msg] is [Message.Token tok], handed on to the node as it came. *)
and handle_token t msg (tok : Message.token) =
  match t.phase with
  | Operational node ->
      let engine = Node.engine node in
      if Types.ring_id_equal tok.t_ring (Engine.ring_id engine) then
        Node.process node msg
      else []
  | Recover r when Types.ring_id_equal tok.t_ring r.r_ring ->
      recover_visit t r msg tok
  | Gather _ | Commit_wait _ | Recover _ -> []

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)

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
  | Formation_timeout, Commit_wait _ ->
      (* The commit token stalled: start over. *)
      enter_gather t
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
  | Formation_timeout, (Operational _ | Gather _ | Recover _)
  | Merge_probe, (Gather _ | Commit_wait _ | Recover _) ->
      []

let fire_timer t timer =
  match timer with
  | Memb_timer kind -> fire_memb_timer t kind
  | Node.Engine_timer kind -> (
      match t.phase with
      | Operational node | Recover { r_node = node; _ } -> (
          let actions = Node.fire_timer node timer in
          match kind with
          | Engine.Token_retransmit -> actions
          | Engine.Token_loss ->
              (* The node has recorded the loss and returned nothing:
                 leaving the ring is the membership algorithm's. *)
              enter_gather t)
      | Gather _ | Commit_wait _ -> [])
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
  | Operational node | Recover { r_node = node; _ } -> (
      match msg with
      | Message.Data _ | Message.Token _ -> Node.receive node msg
      | Message.Join _ | Message.Commit _ ->
          Deque.push_back t.inbox msg;
          `Queued)
  | Gather _ | Commit_wait _ ->
      Deque.push_back t.inbox msg;
      `Queued

let has_work t =
  (not (Deque.is_empty t.inbox))
  ||
  match t.phase with
  | Operational node | Recover { r_node = node; _ } -> Node.has_work node
  | Gather _ | Commit_wait _ -> false

let take_next t =
  (* Membership traffic first: it is rare and must never starve behind a
     data backlog. *)
  match Deque.pop_front t.inbox with
  | Some _ as some -> some
  | None -> (
      match t.phase with
      | Operational node | Recover { r_node = node; _ } -> Node.take_next node
      | Gather _ | Commit_wait _ -> None)

let process t msg =
  match msg with
  | Message.Data d -> handle_data t msg d
  | Message.Token tok -> handle_token t msg tok
  | Message.Join j -> handle_join t j
  | Message.Commit c -> handle_commit t c

(* A pre-agreed ring is entered directly, as an install enters its ring. *)
let start t =
  match t.initial_ring with
  | Some ring ->
      let ring_id : Types.ring_id = { rep = ring.(0); ring_seq = 1 } in
      let node = Node.create ~params:t.params ~ring_id ~ring ~me:t.me in
      operate t ring_id ring node (Node.start node)
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
