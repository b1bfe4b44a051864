(* A participant that only arms timers, for each runtime's test of the
   [Participant.Arm_timer] contract. [start] arms key "a" at [a1], key
   "b" at [b] and "a" again at [a2]: the second "a" is built apart from
   the first, so superseding it must go by structural equality. *)

open Aring_ring

type Participant.timer += Key of string

(* The participant, and the fires so far as (key, [now ()]), oldest
   first. *)
let create ~now ~a1 ~b ~a2 =
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
          [
            Participant.Arm_timer (Key "a", a1);
            Participant.Arm_timer (Key "b", b);
            Participant.Arm_timer (Key (String.make 1 'a'), a2);
          ]);
    }
  in
  (p, fun () -> List.rev !fired)
