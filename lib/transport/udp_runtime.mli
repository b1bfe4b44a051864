(** Real-socket runtime: drive a participant over UDP.

    A single-threaded [Unix.select] event loop, matching the paper's
    implementation model (single-threaded daemons, Section I, and separate
    sockets/ports for token and data messages, Section III-D). Logical
    multicast is unicast fan-out to every peer's data port — the fallback
    Spread itself offers where IP-multicast is unavailable; on loopback
    deployments it is the natural choice.

    Routing: tokens and commit tokens travel to the token port, data and
    join messages to the data port; the participant's own priority policy
    (Section III-C) then chooses which queue to serve, exactly as in the
    simulator.

    Timers: one pending timer per key, in an {!Aring_util.Event_heap}
    keyed (absolute ns, arm order). Re-arming a pending key re-keys its
    entry in place, so the old deadline never fires, disarming a key
    removes its entry, and [select] sleeps until the earliest timer. *)

open Aring_wire
open Aring_ring

type peer = {
  pid : Types.pid;
  host : string;  (** e.g. "127.0.0.1" *)
  data_port : int;
  token_port : int;
}

type t

val create :
  me:Types.pid ->
  peers:peer list ->
  participant:Participant.t ->
  ?on_deliver:(Message.data -> unit) ->
  ?on_view:(Participant.view -> unit) ->
  unit ->
  t
(** [create ~me ~peers ~participant ()] binds this process's two UDP
    sockets ([peers] must contain an entry for [me]) and prepares the
    loop. Callbacks run inside the loop thread. *)

val run : t -> duration_s:float -> unit
(** Run the event loop for (approximately) the given wall-clock duration.
    Can be called repeatedly. *)

val close : t -> unit
(** Close the sockets. *)

val packets_received : t -> int
val decode_errors : t -> int

val record_metrics : t -> Aring_obs.Metrics.t -> unit
(** Export the socket counters into a metrics registry under ["udp.*"]
    names. [run] points {!Aring_obs.Flight}'s clock at the wall clock,
    and every delivery and view install handed to the application is a
    flight record ({!Aring_obs.Flight.ev_app_deliver},
    {!Aring_obs.Flight.ev_view_install}). *)
