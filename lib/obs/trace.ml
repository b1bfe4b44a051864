open Aring_wire

(* Structured trace events covering the protocol's steps: token motion,
   data sends, delivery, views, membership phases and faults. One event =
   one observable step of one node, reported once (the steps a Flight
   record holds in full are emitted by Flight.record); timestamps come
   from a pluggable clock so the same hooks serve the discrete-event
   simulator (virtual ns) and the UDP runtime (wall clock ns). *)

type kind =
  | Token_recv of {
      ring : Types.ring_id;
      token_id : int;
      round : int;
      seq : int;
      aru : int;
      local_aru : int;
      safe_line : int;
    }
  | Token_send of {
      ring : Types.ring_id;
      token_id : int;
      round : int;
      seq : int;
      aru : int;
      fcc : int;
      rtr : int;
      local_aru : int;
      safe_line : int;
    }
  | Token_retransmit of { token_id : int; attempt : int }
  | Token_lost
  | Data_send of {
      ring : Types.ring_id;
      seq : int;
      size : int;
      post_token : bool;
      retrans : bool;
    }
  | Deliver of { ring : Types.ring_id; seq : int; sender : int; service : string }
  | View_install of {
      ring : Types.ring_id;
      members : Types.pid list;
      transitional : bool;
    }
  | Phase of { phase : string }
  | Crash
  | Drop of { reason : string; size : int }
  | App_xfer of {
      view : Types.ring_id;
      donor : Types.pid;
      phase : string;
      applied : int;
      entries : int;
    }

type event = { t_ns : int; node : int; kind : kind }

type sink = { emit : event -> unit; flush : unit -> unit }

(* ------------------------------------------------------------------ *)
(* Global sink + clock                                                 *)

let current_sink : sink option ref = ref None
let clock : (unit -> int) ref = ref (fun () -> 0)

let enabled () = Option.is_some !current_sink
let current () = !current_sink
let install s = current_sink := Some s

let uninstall () =
  (match !current_sink with Some s -> s.flush () | None -> ());
  current_sink := None

let set_clock f = clock := f
let now () = !clock ()

let emit_at ~t_ns ~node kind =
  match !current_sink with
  | None -> ()
  | Some s -> s.emit { t_ns; node; kind }

let with_sink s f =
  let prev = !current_sink in
  current_sink := Some s;
  Fun.protect
    ~finally:(fun () ->
      s.flush ();
      current_sink := prev)
    f

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let tee sinks =
  {
    emit = (fun ev -> List.iter (fun s -> s.emit ev) sinks);
    flush = (fun () -> List.iter (fun s -> s.flush ()) sinks);
  }

let fn_sink f = { emit = f; flush = (fun () -> ()) }

(* Unbounded in-memory collector (tests, exporters). *)
type memory = { mutable rev_events : event list; mutable n : int }

let memory () = { rev_events = []; n = 0 }

let memory_sink m =
  {
    emit =
      (fun ev ->
        m.rev_events <- ev :: m.rev_events;
        m.n <- m.n + 1);
    flush = (fun () -> ());
  }

let memory_events m = List.rev m.rev_events
let memory_count m = m.n

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)

let kind_name = function
  | Token_recv _ -> "token_recv"
  | Token_send _ -> "token_send"
  | Token_retransmit _ -> "token_retransmit"
  | Token_lost -> "token_lost"
  | Data_send _ -> "data_send"
  | Deliver _ -> "deliver"
  | View_install _ -> "view_install"
  | Phase _ -> "phase"
  | Crash -> "crash"
  | Drop _ -> "drop"
  | App_xfer _ -> "app_xfer"

let pp_kind ppf k =
  match k with
  | Token_recv { token_id; round; seq; aru; local_aru; safe_line; _ } ->
      Format.fprintf ppf
        "token_recv(id=%d round=%d seq=%d aru=%d local_aru=%d safe=%d)"
        token_id round seq aru local_aru safe_line
  | Token_send { token_id; round; seq; aru; fcc; rtr; _ } ->
      Format.fprintf ppf "token_send(id=%d round=%d seq=%d aru=%d fcc=%d rtr=%d)"
        token_id round seq aru fcc rtr
  | Token_retransmit { token_id; attempt } ->
      Format.fprintf ppf "token_retransmit(id=%d attempt=%d)" token_id attempt
  | Token_lost -> Format.pp_print_string ppf "token_lost"
  | Data_send { seq; size; post_token; retrans; _ } ->
      Format.fprintf ppf "data_send(seq=%d size=%d%s%s)" seq size
        (if post_token then " post" else "")
        (if retrans then " retrans" else "")
  | Deliver { seq; sender; service; _ } ->
      Format.fprintf ppf "deliver(seq=%d from=%d %s)" seq sender service
  | View_install { ring; members; transitional } ->
      Format.fprintf ppf "view_install(%a %s n=%d)" Types.pp_ring_id ring
        (if transitional then "trans" else "reg")
        (List.length members)
  | Phase { phase } -> Format.fprintf ppf "phase(%s)" phase
  | Crash -> Format.pp_print_string ppf "crash"
  | Drop { reason; size } -> Format.fprintf ppf "drop(%s %dB)" reason size
  | App_xfer { view; donor; phase; applied; entries } ->
      Format.fprintf ppf "app_xfer(%s %a donor=%d applied=%d entries=%d)" phase
        Types.pp_ring_id view donor applied entries

let pp_event ppf ev =
  Format.fprintf ppf "[%10d] n%d %a" ev.t_ns ev.node pp_kind ev.kind
