(* A participant that only arms timers, for each runtime's test of the
   [Participant.Arm_timer] contract. [start] arms each (key, delay) of
   [arms] in order; every key is built apart from the string given, so
   superseding a pending key must go by structural equality. *)

open Aring_ring

type Participant.timer += Key of string

(* The participant, and the fires so far as (key, [now ()]), oldest
   first. *)
let create ~now arms =
  let fired = ref [] in
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
            (fun (k, delay) -> Participant.Arm_timer (Key (String.cat k ""), delay))
            arms);
    }
  in
  (p, fun () -> List.rev !fired)
