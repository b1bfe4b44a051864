open Aring_wire
open Aring_ring
module Span = Aring_obs.Span
module Flight = Aring_obs.Flight
module Bytes_ring = Aring_util.Bytes_ring
module Names = Map.Make (String)

type callbacks = {
  on_message :
    sender:string -> groups:string list -> Types.service -> Codec.view -> unit;
  on_group_view : group:string -> members:string list Lazy.t -> unit;
}

type session = {
  s_name : string;
  s_member : string;  (* canonical "#name#daemon" identity *)
  s_callbacks : callbacks;
  mutable s_joined : string list;  (* local record, for re-announcement *)
  mutable s_open : bool;
  (* Slow-receiver mode: [Some q] parks delivered messages in [q]
     instead of invoking [on_message]; the client drains with {!pump} at
     its own pace, off the daemon's delivery path. Each parked delivery
     is its delivered frame and one int ([parked_entry]): the App entry's
     offset in that frame, its encoded size and its service. *)
  mutable s_inbox : Bytes_ring.t option;
  (* The encoded sizes of the inbox's entries, summed: what the session
     is charged against [slow_inbox_limit_bytes]. *)
  mutable s_parked_bytes : int;
  mutable s_cut : bool;  (* ended by the daemon at the limit *)
}

type stats = {
  mutable client_deliveries : int;
  mutable group_notifications : int;
  mutable packs_sent : int;
  mutable envelopes_packed : int;
  mutable sessions_cut : int;
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
  (* Cursor every delivered envelope is parsed through, and the table
     its names are read through. *)
  dec : Codec.decoder;
  names : Envelope.names;
  (* The delivery a routing pass hands out, set before the pass so that
     it folds a top-level function over the recipients, with the daemon
     as accumulator: no closure per delivery. *)
  mutable r_sender : string;
  mutable r_groups : string list;
  mutable r_service : Types.service;
  mutable r_payload : Codec.view;
  mutable r_count : int;  (* recipients handed the envelope's entries *)
  mutable r_entry : int;  (* offset in [dec]'s buffer, shifted past the service tag *)
  pump_dec : Codec.decoder;  (* the cursor [pump] re-reads entries with *)
  (* The emptied inbox of the last slow session to end or turn direct,
     kept for the next one: a session cut at the limit and reconnected
     parks into the arrays its predecessor grew. *)
  mutable spare_inbox : Bytes_ring.t option;
  stats : stats;
  pack_threshold : int;
  (* Every submission is written once into [frame], which holds the
     [pack_count] envelopes awaiting the next flush, back to back, all of
     [pack_service] (unpacked, it is submitted at once). A service change
     flushes to preserve order. *)
  mutable frame : Codec.scratch;
  mutable pack_count : int;
  mutable pack_service : Types.service;
  (* Span stamps of the buffered envelopes (newest first), only those
     taken with a span collector attached. *)
  mutable pack_stamps : int list;
  (* Application-layer hook: every delivered configuration (transitional
     and regular), invoked after the daemon's own pruning and
     re-announcement so anything the hook submits is ordered after the
     daemon's re-announced Joins. *)
  mutable on_view : (Participant.view -> unit) option;
}

let no_payload = Codec.view Bytes.empty ~pos:0 ~len:0

let create ?(pack_threshold = 1300) ~member () =
  {
    member;
    me = Member.me member;
    member_suffix = "#" ^ string_of_int (Member.me member);
    groups = Groups.create ();
    sessions = Hashtbl.create 8;
    routes = Hashtbl.create 16;
    dec = Codec.decoder_empty ();
    names = Envelope.names ();
    r_sender = "";
    r_groups = [];
    r_service = Types.Agreed;
    r_payload = no_payload;
    r_count = 0;
    r_entry = 0;
    pump_dec = Codec.decoder_empty ();
    spare_inbox = None;
    stats =
      {
        client_deliveries = 0;
        group_notifications = 0;
        packs_sent = 0;
        envelopes_packed = 0;
        sessions_cut = 0;
      };
    pack_threshold;
    frame = Codec.scratch ();
    pack_count = 0;
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
  c "daemon.sessions_cut" t.stats.sessions_cut;
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
      s_parked_bytes = 0;
      s_cut = false;
    }
  in
  Hashtbl.replace t.sessions name s;
  s

(* The entry bytes a slow session may hold parked (see the interface
   for the value). *)
let slow_inbox_limit_bytes = 262_144

(* A parked entry's int: its service's two-bit tag, its offset in the
   frame in the next 30 bits, and its encoded size above them (a frame
   the ring carries is far below 1 GiB). Parking the size lets [pump]
   give the charge back before the client's callback runs, whatever
   that callback does. *)
let size_shift = 32
let parked_entry ~entry ~size = entry lor (size lsl size_shift)
let parked_offset parked = (parked lsr 2) land ((1 lsl (size_shift - 2)) - 1)
let parked_size parked = parked lsr size_shift

(* [pump]'s readers, one per service tag, each handing the parked App
   entry it reads to the client whose callbacks are the accumulator. *)
let pumper service =
  let skip cb ~member:_ ~group:_ = cb in
  let app cb ~sender ~groups payload =
    cb.on_message ~sender ~groups service payload;
    cb
  in
  { Envelope.app; join = skip; leave = skip }

let pumpers = Array.init 4 (fun tag -> pumper (Message.service_of_tag tag))

(* Re-read the front entries of [q] through the daemon's name table, as
   delivery read them: nothing is built per message but the payload's
   view. Each frame passed [Envelope.check] when it was delivered, so
   the read cannot raise. *)
let rec pump_from t s q n max =
  if n >= max || Bytes_ring.is_empty q then n
  else begin
    let frame = Bytes_ring.front_bytes q and slot = Bytes_ring.front_int q in
    Bytes_ring.drop q;
    s.s_parked_bytes <- s.s_parked_bytes - parked_size slot;
    let pos = parked_offset slot in
    Codec.decoder_reset t.pump_dec frame ~pos ~len:(Bytes.length frame - pos);
    ignore (Envelope.read_entry t.names t.pump_dec pumpers.(slot land 3) s.s_callbacks);
    pump_from t s q (n + 1) max
  end

let pump t s ~max =
  match s.s_inbox with None -> 0 | Some q -> pump_from t s q 0 max

(* Take [s]'s inbox away, emptied, as the daemon's spare. *)
let release_inbox t s =
  match s.s_inbox with
  | None -> ()
  | Some q ->
      Bytes_ring.clear q;
      t.spare_inbox <- Some q;
      s.s_inbox <- None;
      s.s_parked_bytes <- 0

let set_slow_receiver t s slow =
  if slow then begin
    if Option.is_none s.s_inbox then begin
      s.s_inbox <-
        (match t.spare_inbox with Some _ as q -> q | None -> Some (Bytes_ring.create ()));
      t.spare_inbox <- None
    end
  end
  else begin
    (* Reverting to direct delivery hands over anything still parked,
       in arrival order, so no message is lost or reordered. *)
    ignore (pump t s ~max:max_int);
    release_inbox t s
  end

let inbox_depth _t s = match s.s_inbox with None -> 0 | Some q -> Bytes_ring.length q
let inbox_bytes _t s = s.s_parked_bytes
let is_cut _t s = s.s_cut

let note_packed t =
  List.iter (fun submit_ns -> Span.note_packed ~submit_ns) t.pack_stamps;
  t.pack_stamps <- []

(* Submit the [count] envelopes in the first [len] bytes of the frame:
   one as it is, two or more behind a Batch header. *)
let submit_frame t service ~len ~count =
  let buf = Codec.scratch_buffer t.frame in
  let payload =
    if count = 1 then Bytes.sub buf 0 len
    else begin
      t.stats.packs_sent <- t.stats.packs_sent + 1;
      t.stats.envelopes_packed <- t.stats.envelopes_packed + count;
      Envelope.batch buf ~len ~count
    end
  in
  Member.submit t.member service payload

(* Past this capacity an emptied frame is dropped, so one outsized
   submission (a large client multicast) does not stay resident. *)
let frame_keep = 65_536

let reset_frame t =
  if Bytes.length (Codec.scratch_buffer t.frame) > frame_keep then
    t.frame <- Codec.scratch ()
  else Codec.scratch_reset t.frame

(* Submit the buffered envelopes, the first [len] bytes of the frame, as
   one Batch (or as it is when there is one). *)
let submit_buffered t len =
  note_packed t;
  submit_frame t t.pack_service ~len ~count:t.pack_count;
  t.pack_count <- 0

let flush t =
  if t.pack_count > 0 then begin
    submit_buffered t (Codec.scratch_length t.frame);
    reset_frame t
  end

(* The envelope just written at [start] of the frame, after any still
   buffered: submit it when it is [pack_threshold] bytes or more, or
   buffer it for the next flush. A threshold of 0 buffers nothing. *)
let written t service start =
  let size = Codec.scratch_length t.frame - start in
  if
    t.pack_count > 0
    && ((not (Types.service_equal service t.pack_service))
       || start + size > t.pack_threshold)
  then begin
    (* Flush what was buffered before it, then move it to the front. *)
    submit_buffered t start;
    let buf = Codec.scratch_buffer t.frame in
    Bytes.blit buf start buf 0 size;
    Codec.scratch_truncate t.frame size
  end;
  if size >= t.pack_threshold then begin
    submit_frame t service ~len:size ~count:1;
    reset_frame t
  end
  else begin
    t.pack_service <- service;
    t.pack_count <- t.pack_count + 1;
    let stamp = Span.submit_stamp () in
    if stamp > 0 then t.pack_stamps <- stamp :: t.pack_stamps
  end

let submit_envelope t service env =
  let start = Codec.scratch_length t.frame in
  Envelope.write t.frame env;
  written t service start

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
   [member = Envelope.member_name ~daemon:t.me ~session]: the canonical
   pid parser decides, as it does for [Groups.prune]. *)
let local_session t member =
  let n = String.length member and k = String.length t.member_suffix in
  if n > k && member.[0] = '#' && Groups.daemon_of_member member = t.me
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
    (* Undrained messages die with the connection; a pump under way stops. *)
    release_inbox t s;
    Hashtbl.remove t.sessions s.s_name
  end

(* End a slow session whose next park would pass the limit, as a client
   disconnect does: its Leaves are ordered and its backlog dropped. *)
let cut t s =
  Flight.record ~node:t.me ~code:Flight.ev_session_cut ~a:(inbox_depth t s)
    ~b:s.s_parked_bytes ~c:0 ~d:0;
  t.stats.sessions_cut <- t.stats.sessions_cut + 1;
  s.s_cut <- true;
  disconnect t s

let multicast_write t s ?(service = Types.Agreed) ~groups write x =
  if s.s_open then begin
    let start = Codec.scratch_length t.frame in
    (match Envelope.write_app t.frame ~sender:s.s_member ~groups write x with
    | () -> ()
    | exception e ->
        Codec.scratch_truncate t.frame start;
        raise e);
    written t service start
  end

let multicast t s ?service ~groups payload =
  multicast_write t s ?service ~groups Codec.put_raw payload

(* Tell the local sessions in [group]'s table, in name order. [members]
   is forced only by a reader. *)
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

let counted t =
  t.stats.client_deliveries <- t.stats.client_deliveries + 1;
  t.r_count <- t.r_count + 1

(* Hand the delivery being routed to session [name], when it is still
   connected. *)
let route_one name _halves t =
  match Hashtbl.find t.sessions name with
  | exception Not_found -> t  (* a table entry with no session *)
  | s ->
      (* A slow receiver parks the message; the daemon's routing work
         (and the Deliver action's CPU charge) happens either way, so one
         stalled client never blocks the others. A slow inbox parks the
         delivered frame itself and the entry's offset, which [pump]
         reads again; a direct session is handed a view into the frame.
         Either way the frame is kept alive, never copied. The park is
         charged the entry's encoded size, the span [dec] has just read;
         one that would pass the limit cuts the session instead. *)
      (match s.s_inbox with
      | Some q ->
          let size = Codec.decoder_pos t.dec - (t.r_entry lsr 2) in
          let parked = s.s_parked_bytes + size in
          if parked > slow_inbox_limit_bytes then cut t s
          else begin
            counted t;
            Bytes_ring.push q (Codec.decoder_buffer t.dec)
              (parked_entry ~entry:t.r_entry ~size);
            s.s_parked_bytes <- parked
          end
      | None ->
          counted t;
          s.s_callbacks.on_message ~sender:t.r_sender ~groups:t.r_groups t.r_service
            t.r_payload);
      t

(* The entries of one delivered envelope, read straight into the
   routing fields by [Envelope.read], with the daemon as accumulator: no
   entry is built. Each App entry adds its local recipients to [r_count],
   the number of [Deliver] actions a driving runtime charges per-client
   delivery cost for. *)
let on_app t ~sender ~groups payload =
  (* Route to a local session when either its locally-requested
     membership ([s_joined], effective from the join call — so a
     rejoining session never misses a message ordered before its
     re-announced Join lands) or the delivered-join table (effective
     until the ordered Leave lands) says it belongs: the [routes] index
     holds both halves, in session-name order. *)
  t.r_sender <- sender;
  t.r_groups <- groups;
  t.r_payload <- payload;
  ignore (Names.fold route_one (recipients t groups) t);
  t.r_payload <- no_payload;
  t

let on_join t ~member ~group =
  if Groups.join t.groups ~group ~member then begin
    (match local_session t member with
    | Some name -> update_routes t group (with_half tabled name)
    | None -> ());
    notify_group_view t group (Groups.view t.groups group)
  end;
  t

let on_leave t ~member ~group =
  if Groups.leave t.groups ~group ~member then begin
    (match local_session t member with
    | Some name -> update_routes t group (without_half tabled name)
    | None -> ());
    notify_group_view t group (Groups.view t.groups group)
  end;
  t

let router = { Envelope.app = on_app; join = on_join; leave = on_leave }

(* Local recipients of one delivery, at least one: daemon-internal
   traffic (Join/Leave, or an App envelope with no local recipient)
   still consumed its slot in the total order, so one delivery surfaces
   for the driving runtime to charge and for trace invariants to see a
   gap-free sequence. So does a payload that is not daemon traffic (e.g.
   a recovery flood of a foreign payload), and a malformed one: the
   envelope is checked whole first, so a Batch with a malformed entry
   routes none of its entries. *)
let handle_delivery t (d : Message.data) =
  Codec.decoder_reset t.dec d.payload ~pos:0 ~len:(Bytes.length d.payload);
  match Envelope.check t.dec with
  | exception Codec.Decode_error _ -> 1
  | () ->
      t.r_service <- d.service;
      t.r_count <- 0;
      for _ = 1 to Envelope.read_header t.dec do
        t.r_entry <- (Codec.decoder_pos t.dec lsl 2) lor Message.service_tag d.service;
        ignore (Envelope.read_entry t.names t.dec router t)
      done;
      max 1 t.r_count

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
        notify_group_view t group (Lazy.from_val members))
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

let rec repeat action n tail =
  if n = 0 then tail else action :: repeat action (n - 1) tail

(* One pass in list order (deliveries and views have effects). Each
   engine [Deliver] is re-emitted once per local recipient, the action
   itself each time; a list in which every delivery has one recipient is
   returned as it came. *)
let rec transform_actions t actions =
  match actions with
  | [] -> actions
  | action :: rest ->
      let copies =
        match action with
        | Participant.Deliver d -> handle_delivery t d
        | Participant.Deliver_config v ->
            handle_view t v;
            1
        | Participant.Unicast _ | Participant.Multicast _
        | Participant.Arm_timer _ | Participant.Disarm_timer _ -> 1
      in
      let rest' = transform_actions t rest in
      if copies = 1 && rest' == rest then actions else repeat action copies rest'

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
