(* Always-on flight recorder: a fixed-capacity ring of compact binary
   records per node, capturing the most recent protocol steps. The
   analogue of an aircraft flight recorder — cheap enough to leave on in
   every run, read out only after something goes wrong.

   The record is the one event type of the stack. Records are eleven
   machine words (timestamp, event code, nine integer arguments) written
   into a preallocated flat [int array] per node, in the spirit of the
   Netsim event arena: after the first record from a node its ring
   exists and steady-state recording allocates nothing. Enabling,
   disabling or dumping the rings cannot perturb pinned corpus trace
   hashes.

   Every record is also handed, whole, to the subscribers: the health
   watchdog, the span collector, the invariant checker, the rotation
   profiler and any trace sink. The subscriber list is a plain list
   walked by a top-level function, so dispatch allocates nothing; with
   no subscriber a record pays one load and one branch more. Disabling
   the recorder stops only the ring writes: subscribers still see every
   record. One JSONL codec, with named fields per code, serves the
   [--trace] stream and the post-mortem dump. *)

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

let clock : (unit -> int) ref = ref (fun () -> 0)
let set_clock f = clock := f
let now () = !clock ()

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
let ev_flood = 9
let ev_apply = 10
let ev_dedup = 11
let ev_mcas = 12
let ev_skip = 13
let ev_merge = 14
let ev_crash = 15
let ev_drop = 16
let ev_xfer = 17
let ev_app_deliver = 18
let ev_view_install = 19
let ev_session_cut = 20

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

(* The service of [ev_app_deliver]'s argument [c] (Message.service_tag). *)
let service_name tag =
  if tag >= 0 && tag <= 3 then
    Aring_wire.(Types.service_to_string (Message.service_of_tag tag))
  else "unknown"

(* Each code's name and the JSONL names of its arguments [a], [b], ... in
   order; [""] is an argument the layout leaves 0. A field named "ring"
   holds a packed ring id. Index = code. *)
let layouts =
  [|
    ("unknown", [||]);
    ("token_recv", [| "token_id"; "seq"; "aru"; "local_aru"; "ring"; "round"; "safe_line" |]);
    ( "token_send",
      [| "token_id"; "seq"; "aru"; "rtr"; "ring"; "round"; "safe_line"; "fcc"; "local_aru" |] );
    ("token_retransmit", [| "token_id"; "attempt" |]);
    ("token_lost", [| "round" |]);
    ("data_send", [| "seq"; "post_token"; "retrans"; "submit_ns"; "ring"; "size" |]);
    ("data_recv", [| "seq"; "sender"; "status" |]);
    ("deliver", [| "seq"; "sender"; "service"; ""; "ring" |]);
    ("phase", [| "phase"; "join_seq" |]);
    ("recovery_flood", [| "sent"; "min_aru"; "max_seq" |]);
    ("apply", [| "index"; "delete" |]);
    ("recovery_dedup", [| "held"; "sent"; "saved" |]);
    ("mcas", [| "shard"; "vote"; "mark"; "shards" |]);
    ("skip", [| "shard"; "position" |]);
    ("merge", [| "shard"; "length" |]);
    ("crash", [||]);
    ("drop", [| "reason"; "size" |]);
    ("app_xfer", [| "donor"; "phase"; "applied"; "entries"; "ring" |]);
    ("app_deliver", [| "seq"; "sender"; "service"; ""; "ring" |]);
    ("view_install", [| "transitional"; "members"; ""; ""; "ring" |]);
    ("session_cut", [| "parked"; "parked_bytes" |]);
  |]

let code_name code =
  if code > 0 && code < Array.length layouts then fst layouts.(code) else "unknown"

(* ------------------------------------------------------------------ *)
(* Recording (hot path)                                                *)

let grow node =
  let r = !rings in
  let grown = Array.make (max (node + 1) (2 * Array.length r)) None in
  Array.blit r 0 grown 0 (Array.length r);
  rings := grown

type subscriber =
  ns:int -> node:int -> code:int -> a:int -> b:int -> c:int -> d:int -> e:int ->
  f:int -> g:int -> h:int -> i:int -> unit

let subscribers : subscriber list ref = ref []

let subscribe s =
  if not (List.memq s !subscribers) then subscribers := !subscribers @ [ s ]

let unsubscribe s = subscribers := List.filter (fun t -> t != s) !subscribers

let rec dispatch subs ns node code a b c d e f g h i =
  match subs with
  | [] -> ()
  | s :: rest ->
      s ~ns ~node ~code ~a ~b ~c ~d ~e ~f ~g ~h ~i;
      dispatch rest ns node code a b c d e f g h i

let pack_ring (r : Aring_wire.Types.ring_id) =
  (r.rep lsl 32) lor (r.ring_seq land 0xFFFF_FFFF)

let unpack_ring k : Aring_wire.Types.ring_id =
  { rep = k asr 32; ring_seq = ((k land 0xFFFF_FFFF) lxor 0x8000_0000) - 0x8000_0000 }

(* Inlined into [record_wide] and [record], so neither pays an extra call. *)
let[@inline] record_at ~ns ~node ~code ~a ~b ~c ~d ~e ~f ~g ~h ~i =
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
    buf.(base) <- ns;
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
  match !subscribers with
  | [] -> ()
  | subs -> dispatch subs ns node code a b c d e f g h i

let[@inline] record_wide ~node ~code ~a ~b ~c ~d ~e ~f ~g ~h ~i =
  record_at ~ns:(!clock ()) ~node ~code ~a ~b ~c ~d ~e ~f ~g ~h ~i

let record ~node ~code ~a ~b ~c ~d =
  record_wide ~node ~code ~a ~b ~c ~d ~e:0 ~f:0 ~g:0 ~h:0 ~i:0

(* ------------------------------------------------------------------ *)
(* Readout                                                             *)

type event = {
  ns : int;
  node : int;
  code : int;
  a : int;
  b : int;
  c : int;
  d : int;
  e : int;
  f : int;
  g : int;
  h : int;
  i : int;
}

let node_records node ring =
  let stored = min ring.total ring.cap in
  let first = (ring.next - stored + ring.cap) mod ring.cap in
  List.init stored (fun k ->
      let base = (first + k) mod ring.cap * slot_words in
      let w j = ring.buf.(base + j) in
      { ns = w 0; node; code = w 1; a = w 2; b = w 3; c = w 4; d = w 5; e = w 6;
        f = w 7; g = w 8; h = w 9; i = w 10 })

(* All nodes, globally time-ordered (stable within a node). *)
let records () =
  let all = ref [] in
  Array.iteri
    (fun node -> function
      | Some ring -> all := node_records node ring :: !all
      | None -> ())
    !rings;
  List.concat !all
  |> List.stable_sort (fun x y ->
         match compare x.ns y.ns with 0 -> compare x.node y.node | c -> c)

let total () =
  Array.fold_left
    (fun acc -> function Some r -> acc + r.total | None -> acc)
    0 !rings

let stored () =
  Array.fold_left
    (fun acc -> function Some r -> acc + min r.total r.cap | None -> acc)
    0 !rings

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)

let letters = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i" |]

let arg ev = function
  | 0 -> ev.a
  | 1 -> ev.b
  | 2 -> ev.c
  | 3 -> ev.d
  | 4 -> ev.e
  | 5 -> ev.f
  | 6 -> ev.g
  | 7 -> ev.h
  | _ -> ev.i

(* Argument [k]'s field name under [code]: its layout name, else its
   letter (written only when non-zero). *)
let field code k =
  let names = if code > 0 && code < Array.length layouts then snd layouts.(code) else [||] in
  if k < Array.length names && names.(k) <> "" then (names.(k), true) else (letters.(k), false)

let to_line ev =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"ns\":%d,\"node\":%d,\"ev\":\"%s\"" ev.ns ev.node (code_name ev.code);
  for k = 0 to 8 do
    let v = arg ev k in
    match field ev.code k with
    | "ring", true ->
        let r = unpack_ring v in
        Printf.bprintf buf ",\"ring\":[%d,%d]" r.rep r.ring_seq
    | name, named -> if named || v <> 0 then Printf.bprintf buf ",\"%s\":%d" name v
  done;
  Buffer.add_char buf '}';
  Buffer.contents buf

let output_line oc ev =
  output_string oc (to_line ev);
  output_char oc '\n'

let code_of_name name =
  let rec find code =
    if code >= Array.length layouts then None
    else if fst layouts.(code) = name then Some code
    else find (code + 1)
  in
  find 1

let of_line line =
  let j = Json.of_string line in
  let fail fmt = Printf.ksprintf (fun m -> raise (Json.Parse_error m)) fmt in
  let int name =
    match Json.member name j with
    | None -> None
    | Some v -> (
        match Json.to_int v with Some n -> Some n | None -> fail "field %S is no int" name)
  in
  let req name = match int name with Some n -> n | None -> fail "missing field %S" name in
  let code =
    match Option.bind (Json.member "ev" j) Json.to_str with
    | None -> fail "missing field \"ev\""
    | Some name -> (
        match code_of_name name with Some c -> c | None -> fail "unknown event %S" name)
  in
  let arg k =
    match field code k with
    | "ring", true -> (
        match Json.member "ring" j with
        | Some (Json.List [ Json.Int rep; Json.Int ring_seq ]) ->
            pack_ring { Aring_wire.Types.rep; ring_seq }
        | Some _ -> fail "bad ring id"
        | None -> fail "missing field \"ring\"")
    | name, true -> req name
    | letter, false -> Option.value ~default:0 (int letter)
  in
  let ns = req "ns" and node = req "node" in
  let a = arg 0 and b = arg 1 and c = arg 2 and d = arg 3 and e = arg 4 in
  let f = arg 5 and g = arg 6 and h = arg 7 and i = arg 8 in
  { ns; node; code; a; b; c; d; e; f; g; h; i }

let read_file path =
  In_channel.with_open_text path (fun ic ->
      let rec loop lineno acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some "" -> loop (lineno + 1) acc
        | Some line -> (
            match of_line line with
            | ev -> loop (lineno + 1) (ev :: acc)
            | exception Json.Parse_error msg ->
                raise (Json.Parse_error (Printf.sprintf "line %d: %s" lineno msg)))
      in
      loop 1 [])

let dump_jsonl_file path =
  Out_channel.with_open_text path (fun oc -> List.iter (output_line oc) (records ()))

let capacity () = !capacity
