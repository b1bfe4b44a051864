(** The runtime-facing interface of a protocol participant.

    Both runtimes (the discrete-event simulator and the real UDP loop) drive
    participants through this one interface, so a bare operational {!Node}
    and a full membership-capable {!Member} are interchangeable. They differ
    only when the token is lost: a bare node records the loss and carries
    on without a token, and a member starts the membership algorithm. No
    action reports the loss; its record is
    {!Aring_obs.Flight.ev_token_lost}. The driving loop is:

    {v
      p.receive msg                  (* on packet arrival; may drop *)
      match p.take_next () with      (* when the CPU is free *)
      | Some msg -> interpret (p.process msg)
      | None -> idle
    v}

    Timers are an extensible variant so each layer (ordering engine,
    membership algorithm) can add its own keys; runtimes treat them as
    opaque keys to hand back after the requested delay, keeping at most
    one pending timer per key: a key names the one pending timer, a
    re-arm replaces it ([Arm_timer]) and a disarm removes it
    ([Disarm_timer]). *)

open Aring_wire

type timer = ..
(** Opaque timer key, extended by each protocol layer. Keys are compared
    and hashed structurally, so they must hold no functional values. *)

type view = {
  view_id : Types.ring_id;
  members : Types.pid list;  (** In ring order. *)
  transitional : bool;
      (** A transitional configuration delivers the surviving messages of
          the old configuration to the surviving members before the next
          regular configuration is installed (EVS). *)
}
(** A configuration (membership view) delivered to the application. *)

type action =
  | Unicast of Types.pid * Message.t
  | Multicast of Message.t  (** To every other reachable participant. *)
  | Deliver of Message.data  (** Application message, in total order. *)
  | Deliver_config of view
      (** Configuration change notification, ordered with respect to the
          message stream (EVS semantics). *)
  | Arm_timer of timer * int
      (** [Arm_timer (key, delay_ns)] sets [key]'s one pending timer to
          fire [delay_ns] from now. If a timer structurally equal to [key]
          is still pending, this one replaces it: the superseded timer is
          never handed to [fire_timer]. A key that has fired may be armed
          again. *)
  | Disarm_timer of timer
      (** [Disarm_timer key] removes [key]'s pending timer, if any: it is
          never handed to [fire_timer]. Disarming a key with no pending
          timer does nothing; the key may be armed again afterwards. A
          layer leaving a phase disarms the keys that phase armed, so no
          runtime fires a timer its layer would ignore. *)

type t = {
  pid : Types.pid;
  submit : Types.service -> bytes -> unit;
  receive : Message.t -> [ `Queued | `Dropped ];
  has_work : unit -> bool;
  take_next : unit -> Message.t option;
  process : Message.t -> action list;
  fire_timer : timer -> action list;
  start : unit -> action list;
      (** Actions to perform when the participant comes up. *)
}

val pp_view : Format.formatter -> view -> unit
