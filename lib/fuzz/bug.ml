open Aring_wire
open Aring_ring

type t =
  | Clean
  | Skip_delivery of { node : int; every : int }
  | Skip_retransmission
  | Kv_skip_apply of { node : int; every : int }
  | Kv_apply_before_election
  | Merge_no_seek
  | Recovery_flood

let label = function
  | Clean -> "clean"
  | Skip_delivery { node; every } ->
      Printf.sprintf "skip-delivery(node=%d,every=%d)" node every
  | Skip_retransmission -> "skip-retransmission"
  | Kv_skip_apply { node; every } ->
      Printf.sprintf "kv-skip-apply(node=%d,every=%d)" node every
  | Kv_apply_before_election -> "kv-apply-before-election"
  | Merge_no_seek -> "merge-no-seek"
  | Recovery_flood -> "recovery-flood"

let needs_kv = function
  | Kv_skip_apply _ | Kv_apply_before_election | Merge_no_seek -> true
  | Clean | Skip_delivery _ | Skip_retransmission | Recovery_flood -> false

let of_string = function
  | "clean" -> Ok Clean
  | "skip-delivery" -> Ok (Skip_delivery { node = 0; every = 10 })
  | "skip-retransmission" -> Ok Skip_retransmission
  | "kv-skip-apply" -> Ok (Kv_skip_apply { node = 0; every = 7 })
  | "kv-apply-before-election" -> Ok Kv_apply_before_election
  | "merge-no-seek" -> Ok Merge_no_seek
  | "recovery-flood" -> Ok Recovery_flood
  | s -> Error (Printf.sprintf "unknown bug %S" s)

(* Rewrite every action list a participant emits through [filter]. *)
let filtering (p : Participant.t) filter =
  {
    p with
    Participant.process = (fun msg -> filter (p.Participant.process msg));
    fire_timer = (fun timer -> filter (p.Participant.fire_timer timer));
    start = (fun () -> filter (p.Participant.start ()));
  }

let wrap bug ~node p =
  match bug with
  (* An application-layer bug is planted inside the KV replica or the
     learner merge by the runner, not at the participant boundary. *)
  | Clean | Kv_skip_apply _ | Kv_apply_before_election | Merge_no_seek -> p
  | Recovery_flood ->
      (* Silence recovery: no recovery-marked data leaves, first sent or
         retransmitted. *)
      filtering p
        (List.filter (function
          | Participant.Multicast (Message.Data { service = Types.Recovered; _ }) ->
              false
          | _ -> true))
  | Skip_delivery { node = target; every } when node = target ->
      let deliveries = ref 0 in
      filtering p
        (List.filter (fun action ->
             match action with
             | Participant.Deliver _ ->
                 incr deliveries;
                 !deliveries mod every <> 0
             | _ -> true))
  | Skip_delivery _ -> p
  | Skip_retransmission ->
      (* In the ring protocol a participant only multicasts fresh data at
         increasing sequence numbers; any data multicast at or below the
         highest it already sent is a retransmission. Suppress those. *)
      let high : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
      filtering p
        (List.filter (fun action ->
             match action with
             | Participant.Multicast (Message.Data d) ->
                 let key = (d.d_ring.Types.rep, d.d_ring.Types.ring_seq) in
                 let prev = Option.value ~default:0 (Hashtbl.find_opt high key) in
                 if d.seq > prev then begin
                   Hashtbl.replace high key d.seq;
                   true
                 end
                 else false
             | _ -> true))
