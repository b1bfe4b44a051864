open Aring_wire
open Aring_ring
module Span = Aring_obs.Span
module Deque = Aring_util.Deque
module Names = Map.Make (String)

type callbacks = {
  on_message :
    sender:string -> groups:string list -> Types.service -> bytes -> unit;
  on_group_view : group:string -> members:string list -> unit;
}

type session = {
  s_name : string;
  s_member : string;  (* canonical "#name#daemon" identity *)
  s_callbacks : callbacks;
  mutable s_joined : string list;  (* local record, for re-announcement *)
  mutable s_open : bool;
  (* Slow-receiver mode: [Some q] parks delivered messages in [q]
     instead of invoking [on_message]; the client drains with {!pump} at
     its own pace, off the daemon's delivery path. *)
  mutable s_inbox : (string * string list * Types.service * bytes) Deque.t option;
}

type stats = {
  mutable client_deliveries : int;
  mutable group_notifications : int;
  mutable packs_sent : int;
  mutable envelopes_packed : int;
}

(* The two halves of union routing (see [multicast] in the interface), as
   bits: a local session receives a group's traffic while either is set. *)
let joined = 1  (* the group is in the session's own [s_joined] *)
let tabled = 2  (* its member name is in the delivered table *)

type t = {
  member : Member.t;
  me : Types.pid;
  member_suffix : string;  (* "#<me>": how every local member name ends *)
  groups : Groups.t;
  sessions : (string, session) Hashtbl.t;
  (* Group -> the local session names it routes to, in name order, each
     with its halves. Names, not sessions: resolved through [sessions] at
     delivery, so a session reconnected under the same name still matches
     its predecessor's table entry until the ordered Leave lands. *)
  routes : (string, int Names.t) Hashtbl.t;
  stats : stats;
  packing : bool;
  pack_threshold : int;
  (* Packing buffer: envelopes awaiting the next flush, oldest first, all
     of [pack_service]. A service change flushes to preserve order. *)
  mutable pack_buffer : Envelope.t list;
  mutable pack_bytes : int;
  mutable pack_service : Types.service;
  (* Span stamps parallel to [pack_buffer] (newest first); 0 when no
     span collector was attached at buffering time. *)
  mutable pack_stamps : int list;
  (* Application-layer hook: every delivered configuration (transitional
     and regular), invoked after the daemon's own pruning and
     re-announcement so anything the hook submits is ordered after the
     daemon's re-announced Joins. *)
  mutable on_view : (Participant.view -> unit) option;
}

let create ?(packing = false) ?(pack_threshold = 1300) ~member () =
  {
    member;
    me = Member.me member;
    member_suffix = "#" ^ string_of_int (Member.me member);
    groups = Groups.create ();
    sessions = Hashtbl.create 8;
    routes = Hashtbl.create 16;
    stats =
      {
        client_deliveries = 0;
        group_notifications = 0;
        packs_sent = 0;
        envelopes_packed = 0;
      };
    packing;
    pack_threshold;
    pack_buffer = [];
    pack_bytes = 0;
    pack_service = Types.Agreed;
    pack_stamps = [];
    on_view = None;
  }

let stats t = t.stats
let pid t = t.me
let set_view_handler t f = t.on_view <- Some f

let record_metrics ?(prefix = "") t reg =
  let module Metrics = Aring_obs.Metrics in
  let c name v = Metrics.add (Metrics.counter reg (prefix ^ name)) v in
  c "daemon.client_deliveries" t.stats.client_deliveries;
  c "daemon.group_notifications" t.stats.group_notifications;
  c "daemon.packs_sent" t.stats.packs_sent;
  c "daemon.envelopes_packed" t.stats.envelopes_packed;
  match Member.node t.member with
  | Some node -> Engine.record_metrics ~prefix (Node.engine node) reg
  | None -> ()

let group_members t group = Groups.members t.groups group
let session_member_name _t s = s.s_member

let connect t ~name callbacks =
  if Hashtbl.mem t.sessions name then
    invalid_arg (Printf.sprintf "Daemon.connect: session %S already exists" name);
  let s =
    {
      s_name = name;
      s_member = Envelope.member_name ~daemon:t.me ~session:name;
      s_callbacks = callbacks;
      s_joined = [];
      s_open = true;
      s_inbox = None;
    }
  in
  Hashtbl.replace t.sessions name s;
  s

let set_slow_receiver _t s slow =
  if slow then begin
    match s.s_inbox with
    | Some _ -> ()
    | None -> s.s_inbox <- Some (Deque.create ())
  end
  else begin
    (* Reverting to direct delivery hands over anything still parked,
       in arrival order, so no message is lost or reordered. *)
    (match s.s_inbox with
    | Some q ->
        Deque.iter
          (fun (sender, groups, service, payload) ->
            s.s_callbacks.on_message ~sender ~groups service payload)
          q
    | None -> ());
    s.s_inbox <- None
  end

let inbox_depth _t s =
  match s.s_inbox with None -> 0 | Some q -> Deque.length q

let pump _t s ~max =
  match s.s_inbox with
  | None -> 0
  | Some q ->
      let n = ref 0 in
      let continue = ref true in
      while !continue && !n < max do
        match Deque.pop_front q with
        | None -> continue := false
        | Some (sender, groups, service, payload) ->
            incr n;
            s.s_callbacks.on_message ~sender ~groups service payload
      done;
      !n

let submit_plain t service env =
  Member.submit t.member service (Envelope.encode env)

(* Flush the packing buffer as one Batch (or a plain envelope when it
   holds a single entry). *)
let note_packed t =
  List.iter
    (fun submit_ns -> if submit_ns > 0 then Span.note_packed ~submit_ns)
    t.pack_stamps;
  t.pack_stamps <- []

let flush t =
  match t.pack_buffer with
  | [] -> ()
  | [ env ] ->
      note_packed t;
      submit_plain t t.pack_service env;
      t.pack_buffer <- [];
      t.pack_bytes <- 0
  | entries ->
      t.stats.packs_sent <- t.stats.packs_sent + 1;
      t.stats.envelopes_packed <- t.stats.envelopes_packed + List.length entries;
      note_packed t;
      submit_plain t t.pack_service (Envelope.Batch (List.rev entries));
      t.pack_buffer <- [];
      t.pack_bytes <- 0

let submit_envelope t service env =
  if not t.packing then submit_plain t service env
  else begin
    let size = Envelope.encoded_size env in
    if
      (t.pack_buffer <> [] && not (Types.service_equal service t.pack_service))
      || t.pack_bytes + size > t.pack_threshold
    then flush t;
    if size >= t.pack_threshold then submit_plain t service env
    else begin
      t.pack_service <- service;
      t.pack_buffer <- env :: t.pack_buffer;
      t.pack_stamps <- Span.submit_stamp () :: t.pack_stamps;
      t.pack_bytes <- t.pack_bytes + size
    end
  end

let routes_of t group =
  match Hashtbl.find t.routes group with
  | r -> r
  | exception Not_found -> Names.empty

let update_routes t group f =
  let r = f (routes_of t group) in
  if Names.is_empty r then Hashtbl.remove t.routes group
  else Hashtbl.replace t.routes group r

let with_half half name =
  Names.update name (function None -> Some half | Some h -> Some (h lor half))

let without_half half name =
  Names.update name (function
    | Some h when h land lnot half <> 0 -> Some (h land lnot half)
    | _ -> None)

(* The session name behind [member] when this daemon hosts it, i.e. when
   [member = Envelope.member_name ~daemon:t.me ~session]. *)
let local_session t member =
  let n = String.length member and k = String.length t.member_suffix in
  if n > k && member.[0] = '#' && String.ends_with ~suffix:t.member_suffix member
  then Some (String.sub member 1 (n - k - 1))
  else None

let join t s group =
  if s.s_open then begin
    if not (List.mem group s.s_joined) then s.s_joined <- group :: s.s_joined;
    update_routes t group (with_half joined s.s_name);
    submit_envelope t Types.Agreed (Envelope.Join { member = s.s_member; group })
  end

(* Leaving a group the session never joined is an idempotent no-op: no
   Leave envelope rides the ring, so remote daemons never process a
   spurious membership change. *)
let leave t s group =
  if s.s_open && List.mem group s.s_joined then begin
    s.s_joined <- List.filter (fun g -> g <> group) s.s_joined;
    update_routes t group (without_half joined s.s_name);
    submit_envelope t Types.Agreed (Envelope.Leave { member = s.s_member; group })
  end

let disconnect t s =
  if s.s_open then begin
    List.iter
      (fun group ->
        update_routes t group (without_half joined s.s_name);
        submit_envelope t Types.Agreed
          (Envelope.Leave { member = s.s_member; group }))
      s.s_joined;
    s.s_joined <- [];
    s.s_open <- false;
    (* Undrained slow-receiver messages die with the connection. *)
    (match s.s_inbox with Some q -> Deque.clear q | None -> ());
    Hashtbl.remove t.sessions s.s_name
  end

let multicast t s ?(service = Types.Agreed) ~groups payload =
  if s.s_open then
    submit_envelope t service
      (Envelope.App { sender = s.s_member; groups; payload })

(* Tell the local sessions in [group]'s table, in name order. *)
let notify_group_view t group members =
  Names.iter
    (fun name halves ->
      if halves land tabled <> 0 then
        match Hashtbl.find t.sessions name with
        | exception Not_found -> ()
        | s ->
            t.stats.group_notifications <- t.stats.group_notifications + 1;
            s.s_callbacks.on_group_view ~group ~members)
    (routes_of t group)

(* Rebuild [group]'s tabled half from its full member list. *)
let retable t group members =
  update_routes t group (fun r ->
      List.fold_left
        (fun r m ->
          match local_session t m with
          | Some name -> with_half tabled name r
          | None -> r)
        (Names.fold (fun name _ -> without_half tabled name) r r)
        members)

(* Local session names routed an envelope addressed to [groups]: the
   union of the groups' routes, so a name listed twice counts once. *)
let recipients t = function
  | [ group ] -> routes_of t group
  | groups ->
      List.fold_left
        (fun acc g -> Names.union (fun _ a b -> Some (a lor b)) acc (routes_of t g))
        Names.empty groups

(* Apply one totally-ordered envelope. Returns one [Deliver] action per
   local recipient so a driving runtime charges per-client delivery cost. *)
let rec apply_envelope t (d : Message.data) env =
  match env with
  | Envelope.Batch entries ->
      List.concat_map (fun entry -> apply_envelope t d entry) entries
  | Envelope.App { sender; groups; payload } ->
      (* Route to a local session when either its locally-requested
         membership ([s_joined], effective from the join call — so a
         rejoining session never misses a message ordered before its
         re-announced Join lands) or the delivered-join table (effective
         until the ordered Leave lands) says it belongs: the [routes]
         index holds both halves, in session-name order. *)
      (* Every recipient yields the same action, so one value serves all
         and the list's order carries nothing. *)
      let deliver = Participant.Deliver d in
      Names.fold
        (fun name _ acc ->
          match Hashtbl.find t.sessions name with
          | exception Not_found -> acc  (* a table entry with no session *)
          | s ->
              t.stats.client_deliveries <- t.stats.client_deliveries + 1;
              (* A slow receiver parks the message; the daemon's routing
                 work (and the Deliver action's CPU charge) happens either
                 way, so one stalled client never blocks the others. *)
              (match s.s_inbox with
              | Some q -> Deque.push_back q (sender, groups, d.service, payload)
              | None -> s.s_callbacks.on_message ~sender ~groups d.service payload);
              deliver :: acc)
        (recipients t groups) []
  | Envelope.Join { member; group } ->
      (match Groups.join t.groups ~group ~member with
      | Some members ->
          Option.iter
            (fun name -> update_routes t group (with_half tabled name))
            (local_session t member);
          notify_group_view t group members
      | None -> ());
      []
  | Envelope.Leave { member; group } ->
      (match Groups.leave t.groups ~group ~member with
      | Some members ->
          Option.iter
            (fun name -> update_routes t group (without_half tabled name))
            (local_session t member);
          notify_group_view t group members
      | None -> ());
      []

let handle_delivery t (d : Message.data) =
  match Envelope.decode d.payload with
  | env -> (
      match apply_envelope t d env with
      | [] ->
          (* Daemon-internal traffic (Join/Leave, or an App envelope with
             no local recipient) still consumed its slot in the total
             order — surface one delivery so the driving runtime charges
             it and trace invariants see a gap-free sequence. *)
          [ Participant.Deliver d ]
      | actions -> actions)
  | exception Codec.Decode_error _ ->
      (* Not daemon traffic (e.g. a recovery flood of a foreign payload);
         surface it unchanged. *)
      [ Participant.Deliver d ]

(* A new regular configuration: prune members of departed daemons, tell
   affected local clients, and re-announce our own sessions so daemons that
   merged in can rebuild their view of us. *)
let handle_view t (v : Participant.view) =
  if not v.transitional then begin
    let keep pid = List.mem pid v.members in
    let changed = Groups.prune t.groups ~keep in
    List.iter
      (fun (group, members) ->
        retable t group members;
        notify_group_view t group members)
      changed;
    Hashtbl.iter
      (fun _ s ->
        List.iter
          (fun group ->
            submit_envelope t Types.Agreed
              (Envelope.Join { member = s.s_member; group }))
          s.s_joined)
      t.sessions
  end;
  match t.on_view with None -> () | Some f -> f v

let transform_actions t actions =
  List.concat_map
    (fun action ->
      match action with
      | Participant.Deliver d -> handle_delivery t d
      | Participant.Deliver_config v ->
          handle_view t v;
          [ action ]
      | Participant.Unicast _ | Participant.Multicast _
      | Participant.Arm_timer _ | Participant.Token_loss_detected ->
          [ action ])
    actions

let participant t : Participant.t =
  let inner = Member.participant t.member in
  {
    inner with
    process =
      (fun msg ->
        (* Submissions accumulate until a token is about to be handled —
           they wait for the token anyway, so packing across a rotation
           costs no extra latency. *)
        (match msg with
        | Message.Token _ | Message.Commit _ -> flush t
        | Message.Data _ | Message.Join _ -> ());
        transform_actions t (inner.process msg));
    fire_timer =
      (fun timer ->
        flush t;
        transform_actions t (inner.fire_timer timer));
    start = (fun () -> transform_actions t (inner.start ()));
  }
