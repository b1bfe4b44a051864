(** Trace-driven EVS invariant checker.

    Consumes the {!Flight} record stream (live as a sink, or post-hoc
    through {!Trace.feed}) and asserts per configuration: total-order
    consistency across nodes (same (ring, seq) ⇒ same originator
    everywhere), gap-free in-order delivery (exactly-once cursor advance
    while operational; strictly increasing during the
    transitional-to-regular recovery window, where EVS permits skips),
    local-aru / safe-line monotonicity, and a single token holder per
    (ring, token_id). *)

(** Which invariant a violation breaks. *)
type violation_kind =
  | Total_order  (** Same (ring, seq) delivered with different contents. *)
  | Delivery_regression  (** Delivery seq not strictly increasing. *)
  | Delivery_gap  (** Cursor skipped outside a recovery window. *)
  | Aru_regression  (** A node's local aru moved backward. *)
  | Safe_line_regression  (** A node's stability line moved backward. *)
  | Duplicate_token_holder  (** Two nodes accepted one (ring, token_id). *)
  | Duplicate_token_accept  (** One node accepted one token_id twice. *)

type violation = {
  v_t_ns : int;  (** Trace timestamp of the offending event. *)
  v_node : int;  (** Node at which the violation was observed. *)
  v_kind : violation_kind;
  v_detail : string;  (** Human-readable specifics (ring, seqs, peers). *)
}

(** One-shot summary of a finished (or in-flight) check, as data — the
    fuzzer and CI tooling branch on this rather than parsing strings. *)
type verdict = {
  deliveries : int;  (** Deliveries examined. *)
  violation_total : int;  (** All violations counted. *)
  recorded : violation list;
      (** The first 100 violations, oldest first. *)
}

val violation_message : violation -> string
(** Render one violation the way {!violations} does. *)

type t

val create : unit -> t
(** Keeps the first 100 violation records; all are counted. *)

val as_sink : t -> Trace.sink
(** Reads token receipt and send, and the application's deliveries and
    views ({!Flight.ev_app_deliver}, {!Flight.ev_view_install}). A
    delivery's marked copies are skipped: each ordered message is
    judged, and counted in {!deliveries_checked}, once per node. *)

val verdict : t -> verdict

val violations : t -> string list
(** Rendered {!verdict} records; oldest first, capped at 100. *)

val violation_count : t -> int
val deliveries_checked : t -> int

val check_events : Flight.event list -> string list
(** One-shot: run a fresh checker over a recorded event list. *)

val pp : Format.formatter -> t -> unit
