open Aring_wire

type timer = ..

type view = {
  view_id : Types.ring_id;
  members : Types.pid list;
  transitional : bool;
}

type action =
  | Unicast of Types.pid * Message.t
  | Multicast of Message.t
  | Deliver of Message.data
  | Deliver_config of view
  | Arm_timer of timer * int
  | Disarm_timer of timer

type t = {
  pid : Types.pid;
  submit : Types.service -> bytes -> unit;
  receive : Message.t -> [ `Queued | `Dropped ];
  has_work : unit -> bool;
  take_next : unit -> Message.t option;
  process : Message.t -> action list;
  fire_timer : timer -> action list;
  start : unit -> action list;
}

let pp_view ppf v =
  Format.fprintf ppf "%s(%a: %a)"
    (if v.transitional then "trans" else "reg")
    Types.pp_ring_id v.view_id
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    v.members
