(* A participant that only arms and disarms timers, for each runtime's
   test of the [Participant.Arm_timer] and [Participant.Disarm_timer]
   contract. [start] returns [steps] in order as actions; every key is
   built apart from the string given, so superseding or disarming a
   pending key must go by structural equality. *)

open Aring_ring

type Participant.timer += Key of string

type step =
  | Arm of string * int  (** Arm the key after the delay, in ns. *)
  | Disarm of string

(* The participant, and the fires so far as (key, [now ()]), oldest
   first. *)
let create ~now steps =
  let fired = ref [] in
  let key k = Key (String.cat k "") in
  let p : Participant.t =
    {
      pid = 0;
      submit = (fun _ _ -> ());
      receive = (fun _ -> `Queued);
      has_work = (fun () -> false);
      take_next = (fun () -> None);
      process = (fun _ -> []);
      fire_timer =
        (fun tm ->
          (match tm with Key k -> fired := (k, now ()) :: !fired | _ -> ());
          []);
      start =
        (fun () ->
          List.map
            (function
              | Arm (k, delay) -> Participant.Arm_timer (key k, delay)
              | Disarm k -> Participant.Disarm_timer (key k))
            steps);
    }
  in
  (p, fun () -> List.rev !fired)
