(* Membership + EVS tests, driven through the discrete-event simulator:
   bootstrap from nothing, crash and reformation, partition and merge,
   transitional-configuration delivery, message continuity across
   configuration changes, and property tests over random crash schedules. *)

open Aring_wire
open Aring_ring
open Aring_sim

let check = Alcotest.check

let ms n = n * 1_000_000

type event =
  | Msg of Types.pid * Types.seqno * Types.ring_id * string  (* from, seq, ring, payload *)
  | View of Participant.view

type cluster = {
  sim : Netsim.t;
  members : Member.t array;
  log : event list ref array;  (* newest first, per node *)
}

let make_cluster ?(n = 4) ?(bootstrapped = true) ?(params = Params.snappy)
    ?(net = Profile.gigabit) ?(seed = 7L) () =
  let initial_ring =
    if bootstrapped then Some (Array.init n (fun i -> i)) else None
  in
  let members =
    Array.init n (fun me -> Member.create ~params ~me ?initial_ring ())
  in
  let sim =
    Netsim.create ~net
      ~tiers:(Array.make n Profile.library)
      ~participants:(Array.map Member.participant members)
      ~seed ()
  in
  let log = Array.init n (fun _ -> ref []) in
  Netsim.on_deliver sim (fun ~at ~now:_ (d : Message.data) ->
      log.(at) :=
        Msg (d.pid, d.seq, d.d_ring, Bytes.to_string d.payload) :: !(log.(at)));
  Netsim.on_view sim (fun ~at ~now:_ v -> log.(at) := View v :: !(log.(at)));
  { sim; members; log }

let events c i = List.rev !(c.log.(i))

let messages c i =
  List.filter_map (function Msg (f, s, r, p) -> Some (f, s, r, p) | View _ -> None)
    (events c i)

let views c i =
  List.filter_map (function View v -> Some v | Msg _ -> None) (events c i)

let regular_views c i = List.filter (fun v -> not v.Participant.transitional) (views c i)

let last_regular_view c i =
  match List.rev (regular_views c i) with [] -> None | v :: _ -> Some v

let submit c node service payload =
  Member.submit c.members.(node) service (Bytes.of_string payload)

(* -------------------------------------------------------------------- *)
(* Bootstrap                                                             *)

let test_bootstrap_initial_ring () =
  let c = make_cluster ~n:4 () in
  Netsim.run_until c.sim (ms 50);
  for i = 0 to 3 do
    check Alcotest.string
      (Printf.sprintf "node %d operational" i)
      "operational"
      (Member.state_name c.members.(i));
    match last_regular_view c i with
    | Some v -> check (Alcotest.list Alcotest.int) "all members" [ 0; 1; 2; 3 ] v.members
    | None -> Alcotest.fail "no view delivered"
  done

let test_bootstrap_from_nothing () =
  let c = make_cluster ~n:5 ~bootstrapped:false () in
  Netsim.run_until c.sim (ms 2000);
  for i = 0 to 4 do
    check Alcotest.string
      (Printf.sprintf "node %d operational" i)
      "operational"
      (Member.state_name c.members.(i));
    match last_regular_view c i with
    | Some v ->
        check (Alcotest.list Alcotest.int)
          (Printf.sprintf "node %d full membership" i)
          [ 0; 1; 2; 3; 4 ] v.members
    | None -> Alcotest.fail "no view delivered"
  done;
  (* The formed ring orders messages. *)
  for node = 0 to 4 do
    submit c node Types.Agreed (Printf.sprintf "hello-%d" node)
  done;
  Netsim.run_until c.sim (ms 2200);
  for i = 0 to 4 do
    let msgs = messages c i in
    check Alcotest.int (Printf.sprintf "node %d delivered 5" i) 5 (List.length msgs)
  done

let test_singleton_forms_alone () =
  let c = make_cluster ~n:1 ~bootstrapped:false () in
  Netsim.run_until c.sim (ms 1000);
  check Alcotest.string "operational alone" "operational"
    (Member.state_name c.members.(0));
  (match last_regular_view c 0 with
  | Some v -> check (Alcotest.list Alcotest.int) "solo view" [ 0 ] v.members
  | None -> Alcotest.fail "no view");
  submit c 0 Types.Safe "note-to-self";
  Netsim.run_until c.sim (ms 1200);
  check Alcotest.int "self delivery" 1 (List.length (messages c 0))

(* -------------------------------------------------------------------- *)
(* Crash and reformation                                                 *)

let test_crash_reforms_ring () =
  let c = make_cluster ~n:5 () in
  Netsim.call_at c.sim ~at:(ms 20) (fun () -> Netsim.crash c.sim 2);
  Netsim.run_until c.sim (ms 1500);
  let survivors = [ 0; 1; 3; 4 ] in
  List.iter
    (fun i ->
      check Alcotest.string
        (Printf.sprintf "survivor %d operational" i)
        "operational"
        (Member.state_name c.members.(i));
      match last_regular_view c i with
      | Some v ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "survivor %d sees 4-ring" i)
            survivors v.members
      | None -> Alcotest.fail "no view")
    survivors;
  (* The reformed ring still orders messages. *)
  List.iter (fun node -> submit c node Types.Agreed (Printf.sprintf "post-crash-%d" node)) survivors;
  Netsim.run_until c.sim (ms 2000);
  List.iter
    (fun i ->
      let post =
        List.filter (fun (_, _, _, p) -> String.length p >= 10 && String.sub p 0 10 = "post-crash")
          (messages c i)
      in
      check Alcotest.int (Printf.sprintf "survivor %d delivered post-crash" i) 4
        (List.length post))
    survivors

let test_crash_delivers_transitional_view () =
  let c = make_cluster ~n:4 () in
  Netsim.call_at c.sim ~at:(ms 20) (fun () -> Netsim.crash c.sim 3);
  Netsim.run_until c.sim (ms 1500);
  for i = 0 to 2 do
    let vs = views c i in
    let transitional = List.filter (fun v -> v.Participant.transitional) vs in
    check Alcotest.bool
      (Printf.sprintf "node %d got a transitional view" i)
      true
      (List.length transitional >= 1);
    (* The transitional view contains only survivors of the old ring. *)
    List.iter
      (fun v ->
        check Alcotest.bool "transitional members are survivors" true
          (List.for_all (fun p -> p <> 3) v.Participant.members))
      transitional;
    (* Views arrive in order: initial regular (4 members), then
       transitional, then new regular (3 members). *)
    match vs with
    | first :: rest ->
        check Alcotest.bool "first view regular" false first.transitional;
        check Alcotest.int "first view full" 4 (List.length first.members);
        let final = List.nth rest (List.length rest - 1) in
        check Alcotest.bool "final view regular" false final.transitional;
        check (Alcotest.list Alcotest.int) "final view survivors" [ 0; 1; 2 ]
          final.members
    | [] -> Alcotest.fail "no views"
  done

let test_messages_survive_crash () =
  (* Messages in flight when a member dies are recovered by the exchange:
     every survivor delivers the same set in the same order. *)
  let c = make_cluster ~n:4 () in
  for k = 1 to 30 do
    Netsim.call_at c.sim ~at:(k * 500_000) (fun () ->
        submit c (k mod 4) Types.Agreed (Printf.sprintf "m%d" k))
  done;
  Netsim.call_at c.sim ~at:(ms 8) (fun () -> Netsim.crash c.sim 1);
  Netsim.run_until c.sim (ms 2000);
  let streams =
    List.map (fun i -> List.map (fun (f, s, _, p) -> (f, s, p)) (messages c i)) [ 0; 2; 3 ]
  in
  (match streams with
  | s0 :: rest ->
      List.iteri
        (fun idx s ->
          check Alcotest.bool
            (Printf.sprintf "survivor %d stream identical" (idx + 1))
            true (s = s0))
        rest
  | [] -> assert false);
  (* Messages submitted by survivors are all there (only the dead node's
     unsent messages may be missing). *)
  let s0 = List.hd streams in
  for k = 1 to 30 do
    if k mod 4 <> 1 then
      check Alcotest.bool
        (Printf.sprintf "m%d delivered" k)
        true
        (List.exists (fun (_, _, p) -> p = Printf.sprintf "m%d" k) s0)
  done

(* -------------------------------------------------------------------- *)
(* Partition and merge                                                   *)

let partition_drop side_of ~src ~dst (_ : Message.t) = side_of src <> side_of dst

let test_partition_forms_two_rings () =
  let c = make_cluster ~n:6 () in
  let side i = if i < 3 then 0 else 1 in
  Netsim.call_at c.sim ~at:(ms 20) (fun () ->
      Netsim.set_drop c.sim (partition_drop side));
  Netsim.run_until c.sim (ms 1500);
  for i = 0 to 5 do
    check Alcotest.string
      (Printf.sprintf "node %d operational" i)
      "operational"
      (Member.state_name c.members.(i));
    match last_regular_view c i with
    | Some v ->
        let expected = if i < 3 then [ 0; 1; 2 ] else [ 3; 4; 5 ] in
        check (Alcotest.list Alcotest.int)
          (Printf.sprintf "node %d side view" i)
          expected v.members
    | None -> Alcotest.fail "no view"
  done;
  (* Each side orders independently. *)
  submit c 0 Types.Agreed "left";
  submit c 4 Types.Agreed "right";
  Netsim.run_until c.sim (ms 1800);
  let got i p = List.exists (fun (_, _, _, x) -> x = p) (messages c i) in
  check Alcotest.bool "left side got left" true (got 1 "left");
  check Alcotest.bool "left side missed right" false (got 1 "right");
  check Alcotest.bool "right side got right" true (got 5 "right");
  check Alcotest.bool "right side missed left" false (got 5 "left")

let test_merge_after_heal () =
  let c = make_cluster ~n:6 () in
  let side i = if i < 3 then 0 else 1 in
  Netsim.call_at c.sim ~at:(ms 20) (fun () ->
      Netsim.set_drop c.sim (partition_drop side));
  Netsim.call_at c.sim ~at:(ms 1500) (fun () ->
      Netsim.set_drop c.sim (fun ~src:_ ~dst:_ _ -> false));
  Netsim.run_until c.sim (ms 4000);
  for i = 0 to 5 do
    check Alcotest.string
      (Printf.sprintf "node %d operational after merge" i)
      "operational"
      (Member.state_name c.members.(i));
    match last_regular_view c i with
    | Some v ->
        check (Alcotest.list Alcotest.int)
          (Printf.sprintf "node %d merged view" i)
          [ 0; 1; 2; 3; 4; 5 ] v.members
    | None -> Alcotest.fail "no view"
  done;
  (* The merged ring orders across former sides. *)
  submit c 0 Types.Agreed "after-merge-left";
  submit c 5 Types.Agreed "after-merge-right";
  Netsim.run_until c.sim (ms 4500);
  for i = 0 to 5 do
    let got p = List.exists (fun (_, _, _, x) -> x = p) (messages c i) in
    check Alcotest.bool (Printf.sprintf "node %d got both" i) true
      (got "after-merge-left" && got "after-merge-right")
  done

(* -------------------------------------------------------------------- *)
(* EVS safety properties                                                 *)

(* Messages delivered within the same ring must appear in the same relative
   order at every member that delivered them. *)
let check_per_ring_order c alive =
  let key (f, s, r, _) = (r, f, s) in
  let streams = List.map (fun i -> messages c i) alive in
  List.iteri
    (fun ai a ->
      List.iteri
        (fun bi b ->
          if ai < bi then begin
            let keys_a = List.map key a and keys_b = List.map key b in
            let common_in x other = List.filter (fun k -> List.mem k other) x in
            let ca = common_in keys_a keys_b and cb = common_in keys_b keys_a in
            if ca <> cb then
              Alcotest.failf "delivery order diverges between nodes %d and %d"
                (List.nth alive ai) (List.nth alive bi)
          end)
        streams)
    streams

let prop_crash_schedule_preserves_order =
  QCheck.Test.make ~name:"random crash schedules preserve per-ring order"
    ~count:12
    QCheck.(pair (int_range 0 3) (int_range 1 997))
    (fun (victim, seed) ->
      let n = 4 in
      let c = make_cluster ~n ~seed:(Int64.of_int seed) () in
      for k = 1 to 40 do
        Netsim.call_at c.sim ~at:(k * 400_000) (fun () ->
            submit c (k mod n) Types.Agreed (Printf.sprintf "p%d" k))
      done;
      let crash_at = ms (5 + (seed mod 15)) in
      Netsim.call_at c.sim ~at:crash_at (fun () -> Netsim.crash c.sim victim);
      Netsim.run_until c.sim (ms 3000);
      let alive = List.filter (fun i -> i <> victim) [ 0; 1; 2; 3 ] in
      check_per_ring_order c alive;
      (* All survivors converge to the same final regular view. *)
      let final_views = List.map (fun i -> last_regular_view c i) alive in
      List.for_all
        (fun v ->
          match (v, List.hd final_views) with
          | Some a, Some b ->
              Types.ring_id_equal a.Participant.view_id b.Participant.view_id
              && a.members = b.members
              && List.length a.members = 3
          | _ -> false)
        final_views)

let prop_safe_messages_delivered_at_all_survivors =
  QCheck.Test.make ~name:"safe delivery honoured across crashes" ~count:10
    QCheck.(int_range 1 997)
    (fun seed ->
      let n = 4 in
      let victim = seed mod n in
      let c = make_cluster ~n ~seed:(Int64.of_int seed) () in
      for k = 1 to 25 do
        Netsim.call_at c.sim ~at:(k * 300_000) (fun () ->
            submit c (k mod n) Types.Safe (Printf.sprintf "s%d" k))
      done;
      Netsim.call_at c.sim ~at:(ms (4 + (seed mod 10))) (fun () ->
          Netsim.crash c.sim victim);
      Netsim.run_until c.sim (ms 3000);
      let alive = List.filter (fun i -> i <> victim) [ 0; 1; 2; 3 ] in
      check_per_ring_order c alive;
      (* EVS agreement: survivors that went through the same sequence of
         configurations must deliver exactly the same messages. (Survivors
         that were transiently excluded and re-merged legitimately miss the
         messages of configurations they were not members of.) *)
      let view_history i =
        List.map
          (fun (v : Participant.view) -> (v.view_id, v.members, v.transitional))
          (views c i)
      in
      let delivered_set i =
        List.map (fun (f, s, r, _) -> (r, f, s)) (messages c i)
      in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              i >= j
              || view_history i <> view_history j
              || delivered_set i = delivered_set j)
            alive)
        alive)


let test_submissions_during_formation_carry_over () =
  (* Messages submitted while the ring is reforming are buffered and
     sequenced in the next configuration. *)
  let c = make_cluster ~n:4 () in
  Netsim.call_at c.sim ~at:(ms 10) (fun () -> Netsim.crash c.sim 3);
  (* Submit while the survivors are still detecting/reforming. *)
  Netsim.call_at c.sim ~at:(ms 30) (fun () ->
      check Alcotest.bool "node 0 not operational yet" true
        (Member.state_name c.members.(0) <> "operational"
        || Member.installs c.members.(0) = 1);
      submit c 0 Types.Agreed "buffered-during-formation");
  Netsim.run_until c.sim (ms 2000);
  (* The submitter delivers it; so does every survivor that was a member of
     the configuration in which it was sequenced (EVS scope). *)
  let ring_of_delivery =
    List.find_map
      (fun (_, _, r, p) -> if p = "buffered-during-formation" then Some r else None)
      (messages c 0)
  in
  match ring_of_delivery with
  | None -> Alcotest.fail "submitter never delivered its own message"
  | Some ring ->
      List.iter
        (fun i ->
          let was_member =
            List.exists
              (fun v ->
                Types.ring_id_equal v.Participant.view_id ring
                && List.mem i v.Participant.members)
              (regular_views c i)
          in
          if was_member then
            check Alcotest.bool
              (Printf.sprintf "member %d delivered it" i)
              true
              (List.exists
                 (fun (_, _, _, p) -> p = "buffered-during-formation")
                 (messages c i)))
        [ 0; 1; 2 ]

let test_double_crash () =
  let c = make_cluster ~n:5 () in
  Netsim.call_at c.sim ~at:(ms 10) (fun () -> Netsim.crash c.sim 1);
  Netsim.call_at c.sim ~at:(ms 400) (fun () -> Netsim.crash c.sim 4);
  Netsim.run_until c.sim (ms 3000);
  let survivors = [ 0; 2; 3 ] in
  List.iter
    (fun i ->
      check Alcotest.string
        (Printf.sprintf "survivor %d operational" i)
        "operational"
        (Member.state_name c.members.(i));
      match last_regular_view c i with
      | Some v ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "survivor %d 3-ring" i)
            survivors v.members
      | None -> Alcotest.fail "no view")
    survivors;
  (* At least two installations beyond the initial one. *)
  check Alcotest.bool "multiple installs" true
    (Member.installs c.members.(0) >= 3)

let test_three_way_partition_and_merge () =
  let c = make_cluster ~n:6 () in
  let side i = i / 2 in
  Netsim.call_at c.sim ~at:(ms 20) (fun () ->
      Netsim.set_drop c.sim (partition_drop side));
  Netsim.run_until c.sim (ms 1500);
  for i = 0 to 5 do
    match last_regular_view c i with
    | Some v ->
        check Alcotest.int
          (Printf.sprintf "node %d in a pair" i)
          2
          (List.length v.members)
    | None -> Alcotest.fail "no view"
  done;
  Netsim.call_at c.sim ~at:(ms 1600) (fun () ->
      Netsim.set_drop c.sim (fun ~src:_ ~dst:_ _ -> false));
  Netsim.run_until c.sim (ms 6000);
  for i = 0 to 5 do
    match last_regular_view c i with
    | Some v ->
        check (Alcotest.list Alcotest.int)
          (Printf.sprintf "node %d fully merged" i)
          [ 0; 1; 2; 3; 4; 5 ] v.members
    | None -> Alcotest.fail "no view"
  done

let test_installs_counter () =
  let c = make_cluster ~n:3 () in
  Netsim.run_until c.sim (ms 5);
  check Alcotest.int "bootstrap counts as one" 1 (Member.installs c.members.(0));
  Netsim.call_at c.sim ~at:(ms 10) (fun () -> Netsim.crash c.sim 2);
  Netsim.run_until c.sim (ms 1500);
  check Alcotest.bool "reformation adds at least one" true
    (Member.installs c.members.(0) >= 2);
  (match last_regular_view c 0 with
  | Some v -> check (Alcotest.list Alcotest.int) "final pair" [ 0; 1 ] v.members
  | None -> Alcotest.fail "no view");
  (match Member.node c.members.(0) with
  | Some _ -> ()
  | None -> Alcotest.fail "operational node accessor");
  check Alcotest.int "pid accessor" 0 (Member.me c.members.(0))

(* -------------------------------------------------------------------- *)
(* Membership churn regressions                                          *)

(* A Join arriving while formation is mid-commit is deliberately absorbed
   without action (the joiner keeps retransmitting and is merged right
   after installation); it must not derail the formation in progress. We
   pin the survivors in Commit_wait by dropping commit tokens, inject late
   joins straight into the representative, and then let the ring form. *)
let test_join_during_commit_is_absorbed () =
  let c = make_cluster ~n:3 () in
  let drop_commits ~src:_ ~dst:_ = function
    | Message.Commit _ -> true
    | _ -> false
  in
  Netsim.call_at c.sim ~at:(ms 10) (fun () ->
      Netsim.set_drop c.sim drop_commits;
      Netsim.crash c.sim 2);
  let injections = ref 0 in
  let rec poll at =
    if at <= ms 600 then
      Netsim.call_at c.sim ~at (fun () ->
          if Member.state_name c.members.(0) = "commit" then begin
            incr injections;
            let late : Message.join =
              { j_pid = 9; proc_set = [ 9 ]; fail_set = []; join_seq = !injections }
            in
            let p = Member.participant c.members.(0) in
            let actions = p.Participant.process (Message.Join late) in
            check Alcotest.int "late join absorbed silently" 0
              (List.length actions);
            check Alcotest.string "still mid-commit" "commit"
              (Member.state_name c.members.(0))
          end;
          poll (at + ms 1))
  in
  poll (ms 20);
  Netsim.call_at c.sim ~at:(ms 620) (fun () ->
      Netsim.set_drop c.sim (fun ~src:_ ~dst:_ _ -> false));
  for k = 1 to 6 do
    Netsim.call_at c.sim ~at:(ms 700 + (k * 300_000)) (fun () ->
        submit c (k mod 2) Types.Agreed (Printf.sprintf "post-join-%d" k))
  done;
  Netsim.run_until c.sim (ms 2500);
  check Alcotest.bool "formation was caught mid-commit" true (!injections > 0);
  List.iter
    (fun i ->
      check Alcotest.string
        (Printf.sprintf "survivor %d operational" i)
        "operational"
        (Member.state_name c.members.(i));
      match last_regular_view c i with
      | Some v ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "survivor %d pair ring" i)
            [ 0; 1 ] v.members
      | None -> Alcotest.fail "no view")
    [ 0; 1 ];
  List.iter
    (fun i ->
      let post =
        List.filter
          (fun (_, _, _, p) ->
            String.length p >= 9 && String.sub p 0 9 = "post-join")
          (messages c i)
      in
      check Alcotest.int
        (Printf.sprintf "survivor %d delivered post-formation" i)
        6 (List.length post))
    [ 0; 1 ];
  check_per_ring_order c [ 0; 1 ]

(* A runtime's pending timers, modelled on action lists: an arm puts
   its key last (replacing a pending equal key), a disarm removes it. *)
let apply_timers pending actions =
  List.fold_left
    (fun pending action ->
      match action with
      | Participant.Arm_timer (key, _) -> List.filter (( <> ) key) pending @ [ key ]
      | Participant.Disarm_timer key -> List.filter (( <> ) key) pending
      | _ -> pending)
    pending actions

(* The keys of [pending] that [actions] leaves pending at its first arm,
   that arm's own key (which it supersedes) excepted. *)
let left_at_first_arm pending actions =
  let rec walk pending = function
    | [] -> pending
    | Participant.Arm_timer (key, _) :: _ -> List.filter (( <> ) key) pending
    | action :: rest -> walk (apply_timers pending [ action ]) rest
  in
  walk pending actions

(* Fire [key], a pending timer, as a runtime would: it leaves the
   pending set, and its actions apply to what is left. *)
let fire (p : Participant.t) pending key =
  let actions = p.Participant.fire_timer key in
  (actions, apply_timers (List.filter (( <> ) key) pending) actions)

let is_memb_timer = function Member.Memb_timer _ -> true | _ -> false
let consensus_timeout = Member.Memb_timer Member.Consensus_timeout

(* A phase change leaves no timer of the phase before it pending: each
   key is disarmed or re-armed before the new phase's first arm, so no
   runtime can fire a past phase's timer into the new one. The
   dangerous case is a consensus timeout armed by one gather firing
   into a later gather: it would run the new gather's consensus logic
   early. Driven out-of-band (no simulator) for exact control. *)
let test_stale_memb_timer_is_ignored () =
  let m = Member.create ~params:Params.snappy ~me:0 () in
  let p = Member.participant m in
  let start = p.Participant.start () in
  check Alcotest.string "starts gathering" "gather" (Member.state_name m);
  let gather1 = apply_timers [] start in
  check Alcotest.bool "gather arms its consensus timeout" true
    (List.mem consensus_timeout gather1);
  (* Alone at the consensus timeout, the member installs a singleton
     ring: a phase change that ends every timer the gather armed. *)
  let left = List.filter (( <> ) consensus_timeout) gather1 in
  let install, operational = fire p gather1 consensus_timeout in
  check Alcotest.string "singleton installed" "operational"
    (Member.state_name m);
  check Alcotest.int "one install" 1 (Member.installs m);
  check Alcotest.int "no gather timer left at the first arm" 0
    (List.length (left_at_first_arm left install));
  check Alcotest.bool "the join retransmit is disarmed" false
    (List.mem (Member.Memb_timer Member.Join_retransmit) operational);
  (* A join from a new peer re-gathers: every timer the operational
     phase armed, its node's included, is gone before the gather arms
     its own. *)
  let regather =
    p.Participant.process
      (Message.Join { j_pid = 1; proc_set = [ 0; 1 ]; fail_set = []; join_seq = 1 })
  in
  check Alcotest.string "re-gathering for the joiner" "gather"
    (Member.state_name m);
  check Alcotest.int "no operational timer left at the first arm" 0
    (List.length (left_at_first_arm operational regather));
  let gather2 = apply_timers operational regather in
  check Alcotest.bool "only the gather's timers pending" true
    (List.for_all is_memb_timer gather2);
  (* The one consensus timeout pending is the new gather's: it drives
     consensus, and both joins agree, so the representative proposes
     and enters commit. *)
  let acted, _ = fire p gather2 consensus_timeout in
  check Alcotest.bool "the gather's timeout acts" true (acted <> []);
  check Alcotest.string "consensus proposed" "commit" (Member.state_name m)


let prop_evs_agreement_under_loss =
  QCheck.Test.make
    ~name:"EVS set agreement survives loss during recovery (quiet-token install)"
    ~count:10
    QCheck.(int_range 1 995)
    (fun seed ->
      let n = 4 in
      let victim = seed mod n in
      let net = Profile.with_loss Profile.gigabit 0.03 in
      let c = make_cluster ~n ~net ~seed:(Int64.of_int seed) () in
      for k = 1 to 30 do
        Netsim.call_at c.sim ~at:(k * 300_000) (fun () ->
            submit c (k mod n) Types.Agreed (Printf.sprintf "l%d" k))
      done;
      Netsim.call_at c.sim ~at:(ms (4 + (seed mod 12))) (fun () ->
          Netsim.crash c.sim victim);
      Netsim.run_until c.sim (ms 4000);
      let alive = List.filter (fun i -> i <> victim) [ 0; 1; 2; 3 ] in
      check_per_ring_order c alive;
      (* Installing only on two quiet token visits guarantees: members
         with identical view histories delivered identical sets even
         though recovery messages may have been lost. *)
      let view_history i =
        List.map
          (fun (v : Participant.view) -> (v.view_id, v.members, v.transitional))
          (views c i)
      in
      let delivered_set i =
        List.map (fun (f, s, r, _) -> (r, f, s)) (messages c i)
      in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              i >= j
              || view_history i <> view_history j
              || delivered_set i = delivered_set j)
            alive)
        alive)


let prop_random_partition_schedules =
  QCheck.Test.make ~name:"random partition schedules converge and agree"
    ~count:8
    QCheck.(pair (int_range 1 3) (int_range 1 993))
    (fun (cut, seed) ->
      (* Partition 5 nodes at a random boundary, let both sides run, heal,
         and require: all nodes operational in the full ring at the end,
         with per-ring delivery order consistent throughout. *)
      let n = 5 in
      let c = make_cluster ~n ~seed:(Int64.of_int seed) () in
      let side i = if i <= cut then 0 else 1 in
      for k = 1 to 25 do
        Netsim.call_at c.sim ~at:(k * 400_000) (fun () ->
            submit c (k mod n) Types.Agreed (Printf.sprintf "q%d" k))
      done;
      Netsim.call_at c.sim ~at:(ms (10 + (seed mod 10))) (fun () ->
          Netsim.set_drop c.sim (partition_drop side));
      (* Keep submitting during the partition. *)
      for k = 26 to 40 do
        Netsim.call_at c.sim ~at:(ms 500 + (k * 200_000)) (fun () ->
            submit c (k mod n) Types.Agreed (Printf.sprintf "q%d" k))
      done;
      Netsim.call_at c.sim ~at:(ms 2000) (fun () ->
          Netsim.set_drop c.sim (fun ~src:_ ~dst:_ _ -> false));
      Netsim.run_until c.sim (ms 7000);
      let all = List.init n (fun i -> i) in
      check_per_ring_order c all;
      List.for_all
        (fun i ->
          Member.state_name c.members.(i) = "operational"
          &&
          match last_regular_view c i with
          | Some v -> v.Participant.members = all
          | None -> false)
        all)

(* -------------------------------------------------------------------- *)
(* Recovery: holder election, repair on the new ring's token            *)

(* Random member-info slates for the election properties: a handful of
   survivors of one old ring (plus a decoy from a foreign ring that must
   never be elected), with random aru/high_seq advertisements. *)
let member_info_slate =
  let open QCheck.Gen in
  let ring = { Types.rep = 0; ring_seq = 7 } in
  let foreign = { Types.rep = 9; ring_seq = 3 } in
  let info pid =
    let* aru = int_range 0 40 in
    let* extra = int_range 0 40 in
    pure
      {
        Message.m_pid = pid;
        m_old_ring = ring;
        m_aru = aru;
        m_high_seq = aru + extra;
        m_high_delivered = aru;
      }
  in
  let* n = int_range 1 6 in
  let* infos = flatten_l (List.init n (fun i -> info i)) in
  let decoy =
    {
      Message.m_pid = 99;
      m_old_ring = foreign;
      m_aru = 1000;
      m_high_seq = 1000;
      m_high_delivered = 1000;
    }
  in
  pure (ring, decoy :: infos)

let shuffle_by seed l =
  let st = Random.State.make [| seed |] in
  l
  |> List.map (fun x -> (Random.State.bits st, x))
  |> List.sort compare |> List.map snd

let prop_designated_holder_election =
  QCheck.Test.make
    ~name:"designated-holder election: one deterministic holder per seqno"
    ~count:200
    QCheck.(
      pair (make ~print:(fun _ -> "<slate>") member_info_slate) (int_range 0 1000))
    (fun ((ring, infos), shuffle_seed) ->
      let seqs = List.init 90 (fun s -> s) in
      List.for_all
        (fun seq ->
          let holders = Recovery.holders ~infos ~old_ring:ring seq in
          (* Candidates are duplicate-free survivors of the old ring that
             can actually advertise the seqno; the foreign decoy never
             appears even with the highest aru in the slate. *)
          List.length holders = List.length (List.sort_uniq compare holders)
          && List.for_all
               (fun pid ->
                 List.exists
                   (fun (m : Message.member_info) ->
                     m.m_pid = pid
                     && Types.ring_id_equal m.m_old_ring ring
                     && m.m_high_seq >= seq)
                   infos)
               holders
          (* The designated holder is the head of the candidate list and
             invariant under permutation of the member-info slate — every
             survivor elects the same sender from its local copy. *)
          && Recovery.designated ~infos ~old_ring:ring seq
             = (match holders with [] -> None | h :: _ -> Some h)
          && Recovery.designated
               ~infos:(shuffle_by shuffle_seed infos)
               ~old_ring:ring seq
             = Recovery.designated ~infos ~old_ring:ring seq
          (* A seqno some survivor's aru covers has a sure holder, and the
             designated one is sure: recovery re-sends it from there
             alone. *)
          && (let sure pid =
                List.exists
                  (fun (m : Message.member_info) ->
                    m.m_pid = pid
                    && Types.ring_id_equal m.m_old_ring ring
                    && m.m_aru >= seq)
                  infos
              in
              match Recovery.designated ~infos ~old_ring:ring seq with
              | Some pid -> sure pid || not (List.exists sure (List.map (fun (m : Message.member_info) -> m.m_pid) infos))
              | None -> true))
        seqs)

(* Node 3 is starved of data before node 1 crashes, so the survivors'
   recovery must re-send it old-ring messages; then the first copy of
   every recovery message to node 3 is lost as well. Only the new ring's
   token can bring them back: its rtr asks for each one and a holder
   retransmits it. The formation completes without re-gathering (each
   survivor installs exactly twice: bootstrap + one reformation), and
   node 3 delivers the old ring's messages its peers deliver. *)
let test_lost_recovery_message_repaired_by_rtr () =
  (* The default 512-record ring holds only a run's tail; give the
     recorder room for the whole run's retransmissions. *)
  Aring_obs.Flight.set_capacity 65536;
  let c = make_cluster ~n:4 () in
  for k = 1 to 40 do
    Netsim.call_at c.sim ~at:(k * 200_000) (fun () ->
        submit c (k mod 4) Types.Agreed (Printf.sprintf "f%d" k))
  done;
  let lost = Hashtbl.create 64 in
  let drop ~src:_ ~dst = function
    | Message.Data { service = Types.Recovered; d_ring; seq; _ } when dst = 3 ->
        (* The first copy of each recovery message. *)
        let first = not (Hashtbl.mem lost (d_ring, seq)) in
        Hashtbl.replace lost (d_ring, seq) ();
        first
    | Message.Data _ -> dst = 3 && Netsim.now c.sim < ms 8
    | _ -> false
  in
  Netsim.call_at c.sim ~at:(ms 5) (fun () -> Netsim.set_drop c.sim drop);
  Netsim.call_at c.sim ~at:(ms 8) (fun () -> Netsim.crash c.sim 1);
  Netsim.run_until c.sim (ms 2000);
  let survivors = [ 0; 2; 3 ] in
  List.iter
    (fun i ->
      check Alcotest.string
        (Printf.sprintf "survivor %d operational" i)
        "operational"
        (Member.state_name c.members.(i));
      check Alcotest.int
        (Printf.sprintf "survivor %d reformed exactly once" i)
        2
        (Member.installs c.members.(i)))
    survivors;
  check_per_ring_order c survivors;
  check Alcotest.bool "recovery messages to node 3 were lost" true
    (Hashtbl.length lost > 0);
  let old_ring : Types.ring_id = { rep = 0; ring_seq = 1 } in
  let old_messages i =
    List.filter_map
      (fun (f, s, r, p) ->
        if Types.ring_id_equal r old_ring then Some (f, s, p) else None)
      (messages c i)
  in
  check Alcotest.int "node 3 delivers the old ring's messages node 0 does"
    (List.length (old_messages 0)) (List.length (old_messages 3));
  (* Each lost message came back as a retransmission on the new ring. *)
  let new_ring = (Option.get (Member.current_view c.members.(0))).view_id in
  let retransmitted =
    List.filter
      (fun (r : Aring_obs.Flight.event) ->
        r.code = Aring_obs.Flight.ev_data_send && r.c = 1
        && Types.ring_id_equal (Aring_obs.Flight.unpack_ring r.e) new_ring)
      (Aring_obs.Flight.records ())
  in
  check Alcotest.bool "the new ring's rtr retransmitted them" true
    (List.length retransmitted >= Hashtbl.length lost);
  Aring_obs.Flight.set_capacity 512

(* A second member dies while the survivors are mid-exchange for the
   first death: the membership shrinks again, holders are re-elected
   from the remaining advertisements, and the survivors still converge
   on identical streams. *)
let test_donor_crash_mid_exchange () =
  let c = make_cluster ~n:5 () in
  for k = 1 to 30 do
    Netsim.call_at c.sim ~at:(k * 200_000) (fun () ->
        submit c (k mod 5) Types.Agreed (Printf.sprintf "d%d" k))
  done;
  Netsim.call_at c.sim ~at:(ms 8) (fun () -> Netsim.crash c.sim 1);
  (* Node 2 crashes as soon as the representative starts recovering for
     the first crash, with the new ring's token just started. *)
  while Member.state_name c.members.(0) <> "recover" && Netsim.now c.sim < ms 1000 do
    Netsim.run_until c.sim (Netsim.now c.sim + 10_000)
  done;
  check Alcotest.string "the survivors are recovering" "recover"
    (Member.state_name c.members.(0));
  Netsim.crash c.sim 2;
  Netsim.run_until c.sim (ms 2500);
  let survivors = [ 0; 3; 4 ] in
  List.iter
    (fun i ->
      check Alcotest.string
        (Printf.sprintf "survivor %d operational" i)
        "operational"
        (Member.state_name c.members.(i));
      match last_regular_view c i with
      | Some v ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "survivor %d final view" i)
            survivors v.members
      | None -> Alcotest.fail "no view")
    survivors;
  check_per_ring_order c survivors;
  (* Survivor-submitted messages all arrive despite two donors dying. *)
  let s0 = List.map (fun (f, s, _, p) -> (f, s, p)) (messages c 0) in
  for k = 1 to 30 do
    if k mod 5 <> 1 && k mod 5 <> 2 then
      check Alcotest.bool
        (Printf.sprintf "d%d delivered" k)
        true
        (List.exists (fun (_, _, p) -> p = Printf.sprintf "d%d" k) s0)
  done

(* Recovery at ring scale: 64 bootstrapped nodes lose one member and
   must re-form within the health watchdog's formation-attempt budget —
   no node may burn through anywhere near [k_formation] gathers, and no
   stall may be flagged. *)
let test_64_node_reformation_within_budget () =
  let n = 64 in
  let h = Aring_obs.Health.create ~n () in
  let c = make_cluster ~n () in
  for k = 1 to 32 do
    Netsim.call_at c.sim ~at:(k * 200_000) (fun () ->
        submit c (k mod n) Types.Agreed (Printf.sprintf "w%d" k))
  done;
  Netsim.call_at c.sim ~at:(ms 10) (fun () -> Netsim.crash c.sim 5);
  Aring_obs.Trace.with_sink (Aring_obs.Health.as_sink h) (fun () ->
      Netsim.run_until c.sim (ms 4000));
  let survivors = List.filter (fun i -> i <> 5) (List.init n Fun.id) in
  List.iter
    (fun i ->
      check Alcotest.string
        (Printf.sprintf "node %d operational" i)
        "operational"
        (Member.state_name c.members.(i)))
    survivors;
  (match last_regular_view c 0 with
  | Some v ->
      check (Alcotest.list Alcotest.int) "63-node ring" survivors v.members
  | None -> Alcotest.fail "no view");
  let report = Aring_obs.Health.report h ~now:(ms 4000) in
  check Alcotest.bool "no stall flagged" true
    (report.Aring_obs.Health.r_stalls = []);
  List.iter
    (fun (nr : Aring_obs.Health.node_report) ->
      if nr.nr_max_attempts > 3 then
        Alcotest.failf "node %d needed %d formation attempts (budget 3, watchdog %d)"
          nr.nr_node nr.nr_max_attempts
          Aring_obs.Health.default_k_formation)
    report.Aring_obs.Health.r_nodes

(* A member in Recover runs the new ring's node: the representative's
   first token is processed and forwarded, not dropped, and the second
   quiet visit installs the ring. Driven out-of-band: member 1 takes
   commit passes 1 and 2 of ring (0.5) from representative 0, then two
   regular tokens of that ring. *)
let test_recovering_member_keeps_token () =
  let m = Member.create ~params:Params.snappy ~me:1 () in
  let p = Member.participant m in
  ignore (p.Participant.start ());
  let ring : Types.ring_id = { rep = 0; ring_seq = 5 } in
  let info pid : Message.member_info =
    {
      m_pid = pid;
      m_old_ring = { rep = pid; ring_seq = 0 };
      m_aru = 0;
      m_high_seq = 0;
      m_high_delivered = 0;
    }
  in
  let commit pass : Message.t =
    Message.Commit
      { c_ring = ring; c_token_id = pass; c_pass = pass; c_memb = [ info 0; info 1 ] }
  in
  ignore (p.Participant.process (commit 1));
  check Alcotest.string "pass 1 commits" "commit" (Member.state_name m);
  let pass2 = p.Participant.process (commit 2) in
  check Alcotest.string "pass 2 starts recovery" "recover" (Member.state_name m);
  check Alcotest.bool "pass 2 goes on to the representative" true
    (List.exists
       (function
         | Participant.Unicast (0, Message.Commit { c_pass = 2; _ }) -> true
         | _ -> false)
       pass2);
  let token id : Message.t =
    Message.Token { (Engine.initial_token ring) with token_id = id; t_round = id }
  in
  let forwarded actions =
    List.exists
      (function
        | Participant.Unicast (0, Message.Token tok) ->
            Types.ring_id_equal tok.t_ring ring
        | _ -> false)
      actions
  in
  let first = p.Participant.process (token 0) in
  check Alcotest.bool "the first token is forwarded" true (forwarded first);
  check Alcotest.string "one quiet visit: still recovering" "recover"
    (Member.state_name m);
  let second = p.Participant.process (token 2) in
  check Alcotest.bool "the second token is forwarded" true (forwarded second);
  check Alcotest.string "two quiet visits install" "operational"
    (Member.state_name m);
  let views =
    List.filter_map
      (function Participant.Deliver_config v -> Some v | _ -> None)
      second
  in
  check (Alcotest.list Alcotest.bool) "transitional, then regular view"
    [ true; false ]
    (List.map (fun (v : Participant.view) -> v.transitional) views);
  check Alcotest.int "one install" 1 (Member.installs m)

let qtest = QCheck_alcotest.to_alcotest

(* A singleton member installs a second configuration. Both nodes key
   their timers by the engine's kind alone, so the first node's timers
   must be gone before the second node can arm its own: the gather that
   tears the first node down disarms them ahead of its first arm. *)
let test_torn_down_node_timer_is_ignored () =
  let m = Member.create ~params:Params.snappy ~me:0 () in
  let p = Member.participant m in
  let is_node_timer = function Node.Engine_timer _ -> true | _ -> false in
  (* Fire the oldest pending membership timer, as a runtime firing them
     in arming order would, until the member installs; returns the
     pending set then. *)
  let install pending =
    let installs = Member.installs m in
    let rec loop pending =
      if Member.installs m > installs then pending
      else
        match List.find_opt is_memb_timer pending with
        | None -> Alcotest.fail "no install"
        | Some key -> loop (snd (fire p pending key))
    in
    loop pending
  in
  let first = install (apply_timers [] (p.Participant.start ())) in
  check Alcotest.string "the first install" "operational" (Member.state_name m);
  check Alcotest.bool "the first node armed its timers" true
    (List.exists is_node_timer first);
  let regather =
    p.Participant.process
      (Message.Join { j_pid = 1; proc_set = [ 0; 1 ]; fail_set = []; join_seq = 1 })
  in
  check Alcotest.string "re-gathering for the joiner" "gather" (Member.state_name m);
  check Alcotest.int "the first node's timers are disarmed before the first arm" 0
    (List.length (List.filter is_node_timer (left_at_first_arm first regather)));
  (* The joiner falls silent: the member fails it and installs alone. *)
  let second = install (apply_timers first regather) in
  check Alcotest.int "two installs" 2 (Member.installs m);
  check Alcotest.bool "the second node armed its timers" true
    (List.exists is_node_timer second);
  check Alcotest.string "still operational" "operational" (Member.state_name m)

(* The node's loss timer is the member's way out of [Operational]: its
   fire tears the node down (both engine keys disarmed) and starts
   Gather with a multicast join, while a retransmit fire stays with the
   node. Driven out-of-band, on the pending-set model of the actions. *)
let test_token_loss_fire_starts_gather () =
  let m = Member.create ~params:Params.snappy ~me:0 ~initial_ring:[| 0; 1 |] () in
  let p = Member.participant m in
  let started = apply_timers [] (p.Participant.start ()) in
  check Alcotest.string "starts operational" "operational" (Member.state_name m);
  let rid : Types.ring_id = { rep = 0; ring_seq = 1 } in
  let visit =
    p.Participant.process (Message.Token (Engine.initial_token rid))
  in
  let pending = apply_timers started visit in
  let retransmit = Node.Engine_timer Engine.Token_retransmit
  and loss = Node.Engine_timer Engine.Token_loss in
  check Alcotest.bool "the visit armed both engine keys" true
    (List.mem retransmit pending && List.mem loss pending);
  let _, pending = fire p pending retransmit in
  check Alcotest.string "a retransmit fire stays operational" "operational"
    (Member.state_name m);
  let actions, pending = fire p pending loss in
  check Alcotest.string "a loss fire gathers" "gather" (Member.state_name m);
  check Alcotest.bool "both engine keys disarmed" true
    (List.mem (Participant.Disarm_timer retransmit) actions
    && List.mem (Participant.Disarm_timer loss) actions);
  check Alcotest.bool "no engine key pending" false
    (List.exists (function Node.Engine_timer _ -> true | _ -> false) pending);
  check Alcotest.bool "the join is multicast" true
    (List.exists
       (function
         | Participant.Multicast (Message.Join j) -> j.j_pid = 0
         | _ -> false)
       actions)

let suite =
  [
    ("bootstrap with initial ring", `Quick, test_bootstrap_initial_ring);
    ("bootstrap from nothing", `Quick, test_bootstrap_from_nothing);
    ("singleton forms alone", `Quick, test_singleton_forms_alone);
    ("crash reforms ring", `Quick, test_crash_reforms_ring);
    ("crash delivers transitional view", `Quick, test_crash_delivers_transitional_view);
    ("messages survive crash", `Quick, test_messages_survive_crash);
    ("partition forms two rings", `Quick, test_partition_forms_two_rings);
    ("merge after heal", `Quick, test_merge_after_heal);
    ("submissions during formation carry over", `Quick,
      test_submissions_during_formation_carry_over);
    ("double crash", `Quick, test_double_crash);
    ("three-way partition and merge", `Quick, test_three_way_partition_and_merge);
    ("installs counter", `Quick, test_installs_counter);
    ("join during commit is absorbed", `Quick, test_join_during_commit_is_absorbed);
    ("stale membership timer is ignored", `Quick, test_stale_memb_timer_is_ignored);
    ("torn-down node's timer is ignored", `Quick, test_torn_down_node_timer_is_ignored);
    ("a lost recovery message is repaired by the token's rtr without a re-gather",
      `Quick, test_lost_recovery_message_repaired_by_rtr);
    ("donor crash mid-exchange", `Quick, test_donor_crash_mid_exchange);
    ("64-node reformation within budget", `Slow,
      test_64_node_reformation_within_budget);
    qtest prop_crash_schedule_preserves_order;
    qtest prop_safe_messages_delivered_at_all_survivors;
    qtest prop_evs_agreement_under_loss;
    qtest prop_random_partition_schedules;
    qtest prop_designated_holder_election;
    ("token loss fire starts gather", `Quick, test_token_loss_fire_starts_gather);
    ("a recovering member keeps the new ring's token", `Quick,
      test_recovering_member_keeps_token);
  ]
