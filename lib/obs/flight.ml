(* Always-on flight recorder: a fixed-capacity ring of compact binary
   records per node, capturing the most recent protocol steps even when
   no trace sink is installed. The analogue of an aircraft flight
   recorder — cheap enough to leave on in every run, read out only after
   something goes wrong.

   Records are eleven machine words (timestamp, event code, nine integer
   arguments) written into a preallocated flat [int array] per node, in
   the spirit of the Netsim event arena: after the first record from a
   node its ring exists and steady-state recording allocates nothing.
   Enabling, disabling or dumping the rings cannot perturb pinned corpus
   trace hashes.

   Every record is also handed to the subscribers (the health watchdog
   and the span collector), which decode the codes they need. The
   subscriber list is a plain list walked by a top-level function, so
   dispatch allocates nothing; with no subscriber a record pays one load
   and one branch more. The nine codes whose record holds every field of
   their trace event (token receipt and send, data send, token
   retransmit, token lost, phase, crash, packet drop, state-transfer
   step) are decoded into the installed trace sink here,
   so the protocol reports each of those steps once.
   Disabling the recorder stops only the ring writes: subscribers and
   the trace sink still see every record. *)

let slot_words = 11
let default_capacity = 512

type ring = {
  buf : int array;  (* capacity * slot_words, flat *)
  cap : int;
  mutable next : int;  (* slot index, [0, cap) *)
  mutable total : int;  (* lifetime records, >= stored *)
}

let capacity = ref default_capacity
let rings : ring option array ref = ref [||]
let on = ref true

let set_enabled b = on := b
let reset () = rings := [||]

let set_capacity n =
  if n <= 0 then invalid_arg "Flight.set_capacity: capacity must be > 0";
  capacity := n;
  reset ()

(* ------------------------------------------------------------------ *)
(* Event codes                                                         *)

let ev_token_recv = 1
let ev_token_send = 2
let ev_token_retransmit = 3
let ev_token_lost = 4
let ev_data_send = 5
let ev_data_recv = 6
let ev_deliver = 7
let ev_phase = 8
let ev_recheck = 9
let ev_recheck_giveup = 10
let ev_flood = 11
let ev_apply = 12
let ev_dedup = 13
let ev_burst = 14
let ev_nack = 15
let ev_resend = 16
let ev_mcas = 17
let ev_skip = 18
let ev_merge = 19
let ev_crash = 20
let ev_drop = 21
let ev_xfer = 22

(* Membership phase codes: [ev_phase]'s argument [a]. *)
let phase_operational = 0
let phase_gather = 1
let phase_commit = 2
let phase_recover = 3

let phase_name = function
  | 0 -> "operational"
  | 1 -> "gather"
  | 2 -> "commit"
  | 3 -> "recover"
  | _ -> "unknown"

(* Packet drop reasons: [ev_drop]'s argument [a]. *)
let drop_partition = 0
let drop_random = 1
let drop_switch = 2

let drop_reason_name = function
  | 0 -> "partition"
  | 1 -> "random"
  | 2 -> "switch"
  | _ -> "unknown"

(* State-transfer phases: [ev_xfer]'s argument [b]. *)
let xfer_hello = 0
let xfer_elect = 1
let xfer_snapshot = 2
let xfer_install = 3
let xfer_abort = 4
let xfer_reset = 5

let xfer_phase_name = function
  | 0 -> "hello"
  | 1 -> "elect"
  | 2 -> "snapshot"
  | 3 -> "install"
  | 4 -> "abort"
  | 5 -> "reset"
  | _ -> "unknown"

let code_name = function
  | 1 -> "token_recv"
  | 2 -> "token_send"
  | 3 -> "token_retransmit"
  | 4 -> "token_lost"
  | 5 -> "data_send"
  | 6 -> "data_recv"
  | 7 -> "deliver"
  | 8 -> "phase"
  | 9 -> "exchange_recheck"
  | 10 -> "recheck_giveup"
  | 11 -> "recovery_flood"
  | 12 -> "apply"
  | 13 -> "recovery_dedup"
  | 14 -> "recovery_burst"
  | 15 -> "recovery_nack"
  | 16 -> "recovery_resend"
  | 17 -> "mcas"
  | 18 -> "skip"
  | 19 -> "merge"
  | 20 -> "crash"
  | 21 -> "drop"
  | 22 -> "app_xfer"
  | _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* Recording (hot path)                                                *)

let grow node =
  let r = !rings in
  let grown = Array.make (max (node + 1) (2 * Array.length r)) None in
  Array.blit r 0 grown 0 (Array.length r);
  rings := grown

type subscriber = node:int -> code:int -> a:int -> b:int -> c:int -> d:int -> unit

let subscribers : subscriber list ref = ref []

let subscribe f =
  if not (List.memq f !subscribers) then subscribers := !subscribers @ [ f ]

let unsubscribe f = subscribers := List.filter (fun g -> g != f) !subscribers

let rec dispatch subs node code a b c d =
  match subs with
  | [] -> ()
  | f :: rest ->
      f ~node ~code ~a ~b ~c ~d;
      dispatch rest node code a b c d

let pack_ring (r : Aring_wire.Types.ring_id) =
  (r.rep lsl 32) lor (r.ring_seq land 0xFFFF_FFFF)

let unpack_ring k : Aring_wire.Types.ring_id =
  { rep = k asr 32; ring_seq = ((k land 0xFFFF_FFFF) lxor 0x8000_0000) - 0x8000_0000 }

(* The steps whose record carries every field of their trace event reach
   the trace sink from here, whether or not ring writes are enabled: codes
   1–5 (token receipt, send, retransmit and loss, data send), phase, and
   the codes from crash on (crash, drop, window decision, state-transfer
   step). *)
let traced code =
  (code >= ev_token_recv && code <= ev_data_send) || code = ev_phase || code >= ev_crash

let to_trace ~node ~code ~a ~b ~c ~d ~e ~f ~g ~h ~i =
  let t_ns = Trace.now () in
  let emit kind = Trace.emit_at ~t_ns ~node kind in
  if code = ev_token_recv then
    emit
      (Token_recv
         { ring = unpack_ring e; token_id = a; round = f; seq = b; aru = c;
           local_aru = d; safe_line = g })
  else if code = ev_token_send then
    emit
      (Token_send
         { ring = unpack_ring e; token_id = a; round = f; seq = b; aru = c;
           fcc = h; rtr = d; local_aru = i; safe_line = g })
  else if code = ev_data_send then
    emit
      (Data_send
         { ring = unpack_ring e; seq = a; size = f; post_token = b = 1;
           retrans = c = 1 })
  else if code = ev_token_retransmit then
    emit (Token_retransmit { token_id = a; attempt = b })
  else if code = ev_token_lost then emit Token_lost
  else if code = ev_phase then emit (Phase { phase = phase_name a })
  else if code = ev_crash then emit Crash
  else if code = ev_drop then emit (Drop { reason = drop_reason_name a; size = b })
  else if code = ev_xfer then
    emit
      (App_xfer
         { view = unpack_ring e; donor = a; phase = xfer_phase_name b;
           applied = c; entries = d })

(* Inlined into [record], so the four-argument path pays no extra call. *)
let[@inline] record_wide ~node ~code ~a ~b ~c ~d ~e ~f ~g ~h ~i =
  if !on && node >= 0 then begin
    if node >= Array.length !rings then grow node;
    let ring =
      match (!rings).(node) with
      | Some ring -> ring
      | None ->
          let cap = !capacity in
          let ring = { buf = Array.make (cap * slot_words) 0; cap; next = 0; total = 0 } in
          (!rings).(node) <- Some ring;
          ring
    in
    let base = ring.next * slot_words in
    let buf = ring.buf in
    buf.(base) <- Trace.now ();
    buf.(base + 1) <- code;
    buf.(base + 2) <- a;
    buf.(base + 3) <- b;
    buf.(base + 4) <- c;
    buf.(base + 5) <- d;
    buf.(base + 6) <- e;
    buf.(base + 7) <- f;
    buf.(base + 8) <- g;
    buf.(base + 9) <- h;
    buf.(base + 10) <- i;
    let next = ring.next + 1 in
    ring.next <- (if next = ring.cap then 0 else next);
    ring.total <- ring.total + 1
  end;
  (match !subscribers with
  | [] -> ()
  | subs -> dispatch subs node code a b c d);
  if traced code && Trace.enabled () then
    to_trace ~node ~code ~a ~b ~c ~d ~e ~f ~g ~h ~i

let record ~node ~code ~a ~b ~c ~d =
  record_wide ~node ~code ~a ~b ~c ~d ~e:0 ~f:0 ~g:0 ~h:0 ~i:0

(* ------------------------------------------------------------------ *)
(* Readout                                                             *)

type record_view = {
  r_ns : int;
  r_node : int;
  r_code : int;
  r_a : int;
  r_b : int;
  r_c : int;
  r_d : int;
}

let node_records node ring =
  let stored = min ring.total ring.cap in
  let first = (ring.next - stored + ring.cap) mod ring.cap in
  List.init stored (fun i ->
      let base = (first + i) mod ring.cap * slot_words in
      {
        r_ns = ring.buf.(base);
        r_node = node;
        r_code = ring.buf.(base + 1);
        r_a = ring.buf.(base + 2);
        r_b = ring.buf.(base + 3);
        r_c = ring.buf.(base + 4);
        r_d = ring.buf.(base + 5);
      })

(* All nodes, globally time-ordered (stable within a node). *)
let records () =
  let all = ref [] in
  Array.iteri
    (fun node -> function
      | Some ring -> all := node_records node ring :: !all
      | None -> ())
    !rings;
  List.concat !all
  |> List.stable_sort (fun a b ->
         match compare a.r_ns b.r_ns with 0 -> compare a.r_node b.r_node | c -> c)

let total () =
  Array.fold_left
    (fun acc -> function Some r -> acc + r.total | None -> acc)
    0 !rings

let stored () =
  Array.fold_left
    (fun acc -> function Some r -> acc + min r.total r.cap | None -> acc)
    0 !rings

(* ------------------------------------------------------------------ *)
(* Dumps                                                               *)

let dump_jsonl oc =
  List.iter
    (fun r ->
      Printf.fprintf oc
        "{\"ns\":%d,\"node\":%d,\"ev\":\"%s\",\"a\":%d,\"b\":%d,\"c\":%d,\"d\":%d}\n"
        r.r_ns r.r_node (code_name r.r_code) r.r_a r.r_b r.r_c r.r_d)
    (records ())

let dump_jsonl_file path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> dump_jsonl oc)

let capacity () = !capacity
