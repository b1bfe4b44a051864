open Aring_wire

(* Trace-driven EVS invariant checker. Consumes the Flight record stream
   (live as a sink, or post-hoc from a list) and asserts, per
   configuration:

   - Total-order consistency: a given (ring, seq) delivers the same
     originator and service class at every node that delivers it.
   - Gap-free, in-order delivery: operational deliveries advance each
     node's per-ring cursor by exactly one; recovery deliveries (between
     a transitional and the following regular configuration, where EVS
     permits survivors to skip messages no one holds) need only be
     strictly increasing. A ring's own recovery data (the engine's
     [ev_deliver] of service [Recovered]) is ordered in the ring but
     taken by the membership layer, never the application: it moves
     the cursor up to its seq.
   - aru / safe-line monotonicity: a node's local aru and stability line
     never move backward within a ring (the token aru may dip — local
     state may not).
   - Single token holder: each (ring, token_id) is accepted by at most
     one node — two concurrent tokens would break total order at the
     root.

   Violations are recorded as structured {!violation} records (first
   [max_violations] kept, all counted); strings are rendered on demand. *)

type violation_kind =
  | Total_order
  | Delivery_regression
  | Delivery_gap
  | Aru_regression
  | Safe_line_regression
  | Duplicate_token_holder
  | Duplicate_token_accept

type violation = {
  v_t_ns : int;
  v_node : int;
  v_kind : violation_kind;
  v_detail : string;
}

type verdict = {
  deliveries : int;
  violation_total : int;
  recorded : violation list;
}

let kind_label = function
  | Total_order -> "total_order"
  | Delivery_regression -> "delivery_regression"
  | Delivery_gap -> "delivery_gap"
  | Aru_regression -> "aru_regression"
  | Safe_line_regression -> "safe_line_regression"
  | Duplicate_token_holder -> "duplicate_token_holder"
  | Duplicate_token_accept -> "duplicate_token_accept"

let violation_message v =
  Printf.sprintf "[%d] node %d %s: %s" v.v_t_ns v.v_node (kind_label v.v_kind)
    v.v_detail

(* Rings are keyed by their packed id (Flight.pack_ring). *)
let ring_str k =
  let (r : Types.ring_id) = Flight.unpack_ring k in
  Printf.sprintf "%d.%d" r.rep r.ring_seq

(* Violation records kept; all are counted. *)
let max_violations = 100

type t = {
  mutable kept : violation list;  (* newest first *)
  mutable total : int;
  mutable deliveries : int;
  (* (ring, seq) -> (sender, service) as first delivered anywhere *)
  order : (int * int, int * int) Hashtbl.t;
  (* (node, ring) -> delivery cursor *)
  cursors : (int * int, int) Hashtbl.t;
  (* node -> inside a transitional (recovery) window *)
  in_recovery : (int, unit) Hashtbl.t;
  (* (node, ring) -> last seen (local_aru, safe_line) *)
  monotone : (int * int, int * int) Hashtbl.t;
  (* (ring, token_id) -> accepting node *)
  holders : (int * int, int) Hashtbl.t;
}

let create () =
  {
    kept = [];
    total = 0;
    deliveries = 0;
    order = Hashtbl.create 4096;
    cursors = Hashtbl.create 64;
    in_recovery = Hashtbl.create 16;
    monotone = Hashtbl.create 64;
    holders = Hashtbl.create 4096;
  }

let violation t ~t_ns ~node kind fmt =
  Printf.ksprintf
    (fun detail ->
      t.total <- t.total + 1;
      if List.length t.kept < max_violations then
        t.kept <-
          { v_t_ns = t_ns; v_node = node; v_kind = kind; v_detail = detail }
          :: t.kept)
    fmt

let check_monotone t ~node ~ring ~local_aru ~safe_line ~t_ns =
  let key = (node, ring) in
  (match Hashtbl.find_opt t.monotone key with
  | Some (prev_aru, prev_safe) ->
      if local_aru < prev_aru then
        violation t ~t_ns ~node Aru_regression
          "ring %s: local aru moved backward %d -> %d" (ring_str ring) prev_aru
          local_aru;
      if safe_line < prev_safe then
        violation t ~t_ns ~node Safe_line_regression
          "ring %s: safe line moved backward %d -> %d" (ring_str ring)
          prev_safe safe_line
  | None -> ());
  Hashtbl.replace t.monotone key (local_aru, safe_line)

let on_token_recv t ~t_ns ~node ~ring ~token_id ~local_aru ~safe_line =
  let key = (ring, token_id) in
  (match Hashtbl.find_opt t.holders key with
  | Some holder when holder <> node ->
      violation t ~t_ns ~node Duplicate_token_holder
        "ring %s token_id %d accepted by node %d and node %d (two token \
         holders)"
        (ring_str ring) token_id holder node
  | Some _ ->
      violation t ~t_ns ~node Duplicate_token_accept
        "ring %s token_id %d accepted twice" (ring_str ring) token_id
  | None -> Hashtbl.replace t.holders key node);
  check_monotone t ~node ~ring ~local_aru ~safe_line ~t_ns

let on_deliver t ~t_ns ~node ~ring ~seq ~sender ~service =
  t.deliveries <- t.deliveries + 1;
  let okey = (ring, seq) in
  (match Hashtbl.find_opt t.order okey with
  | Some (s0, svc0) ->
      if s0 <> sender || svc0 <> service then
        violation t ~t_ns ~node Total_order
          "ring %s seq %d: delivered sender=%d/%s but it was first \
           delivered as sender=%d/%s (total order broken)"
          (ring_str ring) seq sender (Flight.service_name service) s0
          (Flight.service_name svc0)
  | None -> Hashtbl.replace t.order okey (sender, service));
  let ckey = (node, ring) in
  let cursor = Option.value ~default:0 (Hashtbl.find_opt t.cursors ckey) in
  if seq <= cursor then
    violation t ~t_ns ~node Delivery_regression
      "ring %s: delivery not increasing (seq %d after cursor %d)"
      (ring_str ring) seq cursor
  else if seq <> cursor + 1 && not (Hashtbl.mem t.in_recovery node) then
    violation t ~t_ns ~node Delivery_gap
      "ring %s: delivery gap (seq %d after cursor %d outside recovery)"
      (ring_str ring) seq cursor;
  Hashtbl.replace t.cursors ckey seq

(* The records the invariants read (layouts in flight.mli): token receipt
   and send, the application's deliveries and views. A delivery's copies
   after the first (a daemon's further local recipients, [d] = 1) are the
   same ordered message: each is judged once per node. *)
let as_sink t ~ns ~node ~code ~a ~b ~c ~d ~e ~f:_ ~g ~h:_ ~i =
  if code = Flight.ev_token_recv then
    on_token_recv t ~t_ns:ns ~node ~ring:e ~token_id:a ~local_aru:d ~safe_line:g
  else if code = Flight.ev_token_send then
    check_monotone t ~node ~ring:e ~local_aru:i ~safe_line:g ~t_ns:ns
  else if code = Flight.ev_deliver then begin
    if c = Message.service_tag Types.Recovered then
      Hashtbl.replace t.cursors (node, e) a
  end
  else if code = Flight.ev_app_deliver then begin
    if d = 0 then on_deliver t ~t_ns:ns ~node ~ring:e ~seq:a ~sender:b ~service:c
  end
  else if code = Flight.ev_view_install then
    if a = 1 then Hashtbl.replace t.in_recovery node ()
    else Hashtbl.remove t.in_recovery node

let verdict t =
  {
    deliveries = t.deliveries;
    violation_total = t.total;
    recorded = List.rev t.kept;
  }

let violations t = List.rev_map violation_message t.kept
let violation_count t = t.total
let deliveries_checked t = t.deliveries

let check_events events =
  let t = create () in
  List.iter (Trace.feed (as_sink t)) events;
  violations t

let pp ppf t =
  if t.total = 0 then
    Format.fprintf ppf "invariants OK (%d deliveries checked)" t.deliveries
  else begin
    Format.fprintf ppf "%d violation(s) over %d deliveries:@." t.total
      t.deliveries;
    List.iter (fun v -> Format.fprintf ppf "  %s@." v) (violations t)
  end
