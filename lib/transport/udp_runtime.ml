open Aring_wire
open Aring_ring
module Event_heap = Aring_util.Event_heap
module Flight = Aring_obs.Flight
module Metrics = Aring_obs.Metrics

type peer = {
  pid : Types.pid;
  host : string;
  data_port : int;
  token_port : int;
}

type t = {
  me : Types.pid;
  peers : (Types.pid * Unix.sockaddr * Unix.sockaddr) list;
      (* pid, data addr, token addr — excluding self *)
  participant : Participant.t;
  data_sock : Unix.file_descr;
  token_sock : Unix.file_descr;
  timers : Event_heap.t;  (* keyed (absolute ns, arm order) *)
  mutable timer_keys : Participant.timer array;  (* by timer handle *)
  pending : (Participant.timer, int) Hashtbl.t;  (* key -> its handle *)
  mutable timer_seq : int;
  recv_buf : bytes;
  pool : Message.Pool.pool;
      (* Reusable encode scratch + decode cursor: sends go straight from
         the pool's buffer to [sendto], receives decode in place from
         [recv_buf] — no per-packet [bytes] copies. *)
  on_deliver : Message.data -> unit;
  on_view : Participant.view -> unit;
  mutable started : bool;
  mutable packets_received : int;
  mutable decode_errors : int;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let addr host port = Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let make_socket ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (addr "0.0.0.0" port);
  Unix.set_nonblock sock;
  sock

let create ~me ~peers ~participant ?(on_deliver = fun _ -> ())
    ?(on_view = fun _ -> ()) () =
  let self =
    match List.find_opt (fun p -> p.pid = me) peers with
    | Some p -> p
    | None -> invalid_arg "Udp_runtime.create: no peer entry for me"
  in
  let others =
    List.filter_map
      (fun p ->
        if p.pid = me then None
        else Some (p.pid, addr p.host p.data_port, addr p.host p.token_port))
      peers
  in
  {
    me;
    peers = others;
    participant;
    data_sock = make_socket ~port:self.data_port;
    token_sock = make_socket ~port:self.token_port;
    timers = Event_heap.create ();
    timer_keys = [||];
    pending = Hashtbl.create 8;
    timer_seq = 0;
    recv_buf = Bytes.create 65536;
    pool = Message.Pool.create ~initial_capacity:65536 ();
    on_deliver;
    on_view;
    started = false;
    packets_received = 0;
    decode_errors = 0;
  }

let packets_received t = t.packets_received
let decode_errors t = t.decode_errors

let record_metrics t reg =
  let c name v = Metrics.add (Metrics.counter reg name) v in
  c "udp.packets_received" t.packets_received;
  c "udp.decode_errors" t.decode_errors

let close t =
  Unix.close t.data_sock;
  Unix.close t.token_sock

let peer_addr t pid =
  List.find_opt (fun (p, _, _) -> p = pid) t.peers

let send_to t sock_kind pid msg =
  match peer_addr t pid with
  | None ->
      if pid = t.me then
        (* Self-delivery (e.g. the representative's initial token). *)
        ignore (t.participant.receive msg)
  | Some (_, data_addr, token_addr) ->
      let buf, len = Message.Pool.encode_view t.pool msg in
      let dst = match sock_kind with `Data -> data_addr | `Token -> token_addr in
      let sock = match sock_kind with `Data -> t.data_sock | `Token -> t.token_sock in
      (try ignore (Unix.sendto sock buf 0 len [] dst)
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNREFUSED), _, _) ->
         (* UDP best-effort: a full buffer or a dead peer is packet loss,
            which the protocol tolerates. *)
         ())

let route_of_message = function
  | Message.Token _ | Message.Commit _ -> `Token
  | Message.Data _ | Message.Join _ -> `Data

(* Arm [timer]; a pending timer of equal key is re-keyed in place. A
   free handle's slot in [timer_keys] keeps its last key. *)
let arm t timer delay_ns =
  let at = now_ns () + delay_ns in
  t.timer_seq <- t.timer_seq + 1;
  match Hashtbl.find t.pending timer with
  | h -> Event_heap.rekey t.timers h ~at ~seq:t.timer_seq
  | exception Not_found ->
      let h = Event_heap.add t.timers ~at ~seq:t.timer_seq in
      let n = Array.length t.timer_keys in
      if h >= n then
        t.timer_keys <-
          Array.append t.timer_keys
            (Array.make (Event_heap.capacity t.timers - n) timer);
      t.timer_keys.(h) <- timer;
      Hashtbl.add t.pending timer h

(* Disarm [timer]: its pending entry, if any, leaves the heap. *)
let disarm t timer =
  match Hashtbl.find_opt t.pending timer with
  | Some h ->
      Hashtbl.remove t.pending timer;
      Event_heap.remove t.timers h
  | None -> ()

let rec interpret t = function
  | [] -> ()
  | Participant.Unicast (pid, msg) :: rest ->
      send_to t (route_of_message msg) pid msg;
      interpret t rest
  | Participant.Multicast msg :: rest ->
      let kind = route_of_message msg in
      List.iter (fun (pid, _, _) -> send_to t kind pid msg) t.peers;
      interpret t rest
  | Participant.Deliver d :: rest -> deliver t d rest ~copy:0
  | Participant.Deliver_config v :: rest ->
      Flight.record_wide ~node:t.me ~code:Flight.ev_view_install
        ~a:(Bool.to_int v.transitional) ~b:(List.length v.members) ~c:0
        ~d:0 ~e:(Flight.pack_ring v.view_id) ~f:0 ~g:0 ~h:0 ~i:0;
      t.on_view v;
      interpret t rest
  | Participant.Arm_timer (timer, delay_ns) :: rest ->
      arm t timer delay_ns;
      interpret t rest
  | Participant.Disarm_timer timer :: rest ->
      disarm t timer;
      interpret t rest

(* One delivery and the copies of it that follow (a daemon's
   per-recipient repeats of one [Deliver] action): the record of every
   copy after the first says so ([d] = 1). *)
and deliver t d rest ~copy =
  Flight.record_wide ~node:t.me ~code:Flight.ev_app_deliver ~a:d.seq ~b:d.pid
    ~c:(Message.service_tag d.service) ~d:copy ~e:(Flight.pack_ring d.d_ring) ~f:0 ~g:0
    ~h:0 ~i:0;
  t.on_deliver d;
  match rest with
  | Participant.Deliver d' :: rest when d' == d -> deliver t d rest ~copy:1
  | _ -> interpret t rest

let rec fire_due_timers t =
  if
    (not (Event_heap.is_empty t.timers))
    && Event_heap.top_at t.timers <= now_ns ()
  then begin
    let timer = t.timer_keys.(Event_heap.pop_exn t.timers) in
    Hashtbl.remove t.pending timer;
    interpret t (t.participant.fire_timer timer);
    fire_due_timers t
  end

let drain_socket t sock =
  let budget = ref 128 in
  let continue = ref true in
  while !continue && !budget > 0 do
    match Unix.recvfrom sock t.recv_buf 0 (Bytes.length t.recv_buf) [] with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
    | len, _from -> (
        decr budget;
        t.packets_received <- t.packets_received + 1;
        match Message.Pool.decode_sub t.pool t.recv_buf ~pos:0 ~len with
        | msg -> ignore (t.participant.receive msg)
        | exception Codec.Decode_error _ ->
            t.decode_errors <- t.decode_errors + 1)
  done

let run t ~duration_s =
  (* Real deployments stamp records in wall-clock nanoseconds. *)
  Flight.set_clock now_ns;
  if not t.started then begin
    t.started <- true;
    interpret t (t.participant.start ())
  end;
  let deadline = now_ns () + int_of_float (duration_s *. 1e9) in
  while now_ns () < deadline do
    let timeout_s =
      if t.participant.has_work () then 0.0
      else begin
        let next =
          if Event_heap.is_empty t.timers then deadline
          else Event_heap.top_at t.timers
        in
        let until = min next deadline - now_ns () in
        Float.max 0.0 (float_of_int until /. 1e9)
      end
    in
    let readable, _, _ =
      try Unix.select [ t.data_sock; t.token_sock ] [] [] (Float.min timeout_s 0.05)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter (fun sock -> drain_socket t sock) readable;
    fire_due_timers t;
    (* Process a bounded batch so sockets keep draining under load. *)
    let budget = ref 256 in
    let continue = ref true in
    while !continue && !budget > 0 do
      match t.participant.take_next () with
      | None -> continue := false
      | Some msg ->
          decr budget;
          interpret t (t.participant.process msg)
    done
  done
