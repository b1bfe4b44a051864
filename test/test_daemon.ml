(* Daemon-layer tests: envelope codec, group bookkeeping, and end-to-end
   group semantics (membership notifications, multi-group multicast,
   open-group sends, daemon crash pruning) on a simulated cluster. *)

open Aring_wire
open Aring_ring
open Aring_sim
open Aring_daemon

let check = Alcotest.check

let ms n = n * 1_000_000

(* -------------------------------------------------------------------- *)
(* Envelope codec                                                        *)

let test_envelope_roundtrips () =
  let samples =
    [
      Envelope.App
        { sender = "#a#0"; groups = [ "g1"; "g2" ]; payload = Bytes.of_string "xyz" };
      Envelope.Join { member = "#b#1"; group = "chat" };
      Envelope.Leave { member = "#c#2"; group = "chat" };
    ]
  in
  List.iter
    (fun env ->
      let env' = Envelope.decode (Envelope.encode env) in
      check Alcotest.string "roundtrip"
        (Fmt.str "%a" Envelope.pp env)
        (Fmt.str "%a" Envelope.pp env');
      check Alcotest.bool "equal" true (env = env'))
    samples

let prop_envelope_roundtrip =
  QCheck.Test.make ~name:"envelope roundtrips" ~count:200
    QCheck.(
      triple (string_of_size Gen.(0 -- 30))
        (list_of_size Gen.(0 -- 5) (string_of_size Gen.(1 -- 20)))
        (string_of_size Gen.(0 -- 200)))
    (fun (sender, groups, payload) ->
      let env =
        Envelope.App { sender; groups; payload = Bytes.of_string payload }
      in
      Envelope.decode (Envelope.encode env) = env)

let test_envelope_rejects_garbage () =
  Alcotest.check_raises "bad tag"
    (Codec.Decode_error "unknown envelope tag 99")
    (fun () -> ignore (Envelope.decode (Bytes.make 1 'c')))

(* -------------------------------------------------------------------- *)
(* Groups                                                                *)

let test_groups_join_leave () =
  let g = Groups.create () in
  check (Alcotest.option (Alcotest.list Alcotest.string)) "first join"
    (Some [ "#a#0" ])
    (Groups.join g ~group:"g" ~member:"#a#0");
  check (Alcotest.option (Alcotest.list Alcotest.string)) "second join"
    (Some [ "#a#0"; "#b#1" ])
    (Groups.join g ~group:"g" ~member:"#b#1");
  check (Alcotest.option (Alcotest.list Alcotest.string)) "duplicate join" None
    (Groups.join g ~group:"g" ~member:"#a#0");
  check (Alcotest.option (Alcotest.list Alcotest.string)) "leave"
    (Some [ "#b#1" ])
    (Groups.leave g ~group:"g" ~member:"#a#0");
  check (Alcotest.option (Alcotest.list Alcotest.string)) "leave unknown" None
    (Groups.leave g ~group:"g" ~member:"#zz#9");
  check (Alcotest.option (Alcotest.list Alcotest.string)) "last leave empties"
    (Some [])
    (Groups.leave g ~group:"g" ~member:"#b#1");
  check (Alcotest.list Alcotest.string) "group gone" [] (Groups.members g "g")

let test_groups_prune () =
  let g = Groups.create () in
  ignore (Groups.join g ~group:"g1" ~member:"#a#0");
  ignore (Groups.join g ~group:"g1" ~member:"#b#1");
  ignore (Groups.join g ~group:"g2" ~member:"#c#1");
  ignore (Groups.join g ~group:"g3" ~member:"#d#2");
  let changed = Groups.prune g ~keep:(fun pid -> pid <> 1) in
  check Alcotest.int "two groups changed" 2 (List.length changed);
  check (Alcotest.list Alcotest.string) "g1 pruned" [ "#a#0" ] (Groups.members g "g1");
  check (Alcotest.list Alcotest.string) "g2 emptied" [] (Groups.members g "g2");
  check (Alcotest.list Alcotest.string) "g3 untouched" [ "#d#2" ] (Groups.members g "g3")

let test_daemon_of_member () =
  check (Alcotest.option Alcotest.int) "parse" (Some 3)
    (Groups.daemon_of_member "#sess#3");
  check (Alcotest.option Alcotest.int) "no hash" None
    (Groups.daemon_of_member "plain");
  check (Alcotest.option Alcotest.int) "bad pid" None
    (Groups.daemon_of_member "#sess#xyz")

let test_groups_reject_malformed_names () =
  let g = Groups.create () in
  check (Alcotest.option (Alcotest.list Alcotest.string))
    "name without daemon pid rejected" None
    (Groups.join g ~group:"g" ~member:"plain");
  check (Alcotest.option (Alcotest.list Alcotest.string))
    "unparsable pid rejected" None
    (Groups.join g ~group:"g" ~member:"#sess#xyz");
  check (Alcotest.list Alcotest.string) "table untouched" []
    (Groups.members g "g");
  check (Alcotest.list Alcotest.string) "no group created" []
    (Groups.group_names g);
  check Alcotest.bool "valid_member_name agrees" false
    (Groups.valid_member_name "plain");
  check Alcotest.bool "valid name accepted" true
    (Groups.valid_member_name "#sess#3")

(* --------------------------------------------------------------------
   Groups properties: drive the table with random join/leave/prune
   sequences and check the structural invariants the daemon layer
   depends on (sorted dup-free member lists, no empty groups, prune
   exactly removes dead daemons' members). *)

type groups_op =
  | Op_join of string * string
  | Op_leave of string * string
  | Op_prune of int  (* kill this daemon pid *)

let groups_member_pool =
  (* Mostly valid names across four daemons, plus malformed ones that
     must bounce off [join] without corrupting the table. *)
  [
    "#a#0"; "#b#0"; "#c#1"; "#d#1"; "#e#2"; "#f#3"; "#g#3";
    "plain"; "#nopid#"; "#x#4x4";
  ]

let groups_op_gen =
  QCheck.Gen.(
    let group = oneofl [ "g1"; "g2"; "g3" ] in
    let member = oneofl groups_member_pool in
    frequency
      [
        (6, map2 (fun g m -> Op_join (g, m)) group member);
        (3, map2 (fun g m -> Op_leave (g, m)) group member);
        (1, map (fun pid -> Op_prune pid) (int_bound 3));
      ])

let groups_ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Op_join (g, m) -> Printf.sprintf "join(%s,%s)" g m
             | Op_leave (g, m) -> Printf.sprintf "leave(%s,%s)" g m
             | Op_prune pid -> Printf.sprintf "prune(%d)" pid)
           ops))
    QCheck.Gen.(list_size (int_range 1 80) groups_op_gen)

(* Replay [ops] against the real table and a reference model (an assoc
   list of group -> member set), checking invariants after every step. *)
let check_groups_invariants ops =
  let g = Groups.create () in
  let model = Hashtbl.create 8 in
  let model_members grp =
    Option.value ~default:[] (Hashtbl.find_opt model grp)
  in
  let model_set grp = function
    | [] -> Hashtbl.remove model grp
    | ms -> Hashtbl.replace model grp ms
  in
  let step op =
    (match op with
    | Op_join (grp, m) ->
        let r = Groups.join g ~group:grp ~member:m in
        let valid = Groups.valid_member_name m in
        let fresh = not (List.mem m (model_members grp)) in
        if valid && fresh then
          model_set grp (List.sort compare (m :: model_members grp))
        else if r <> None then failwith "join accepted a duplicate/invalid"
    | Op_leave (grp, m) ->
        ignore (Groups.leave g ~group:grp ~member:m);
        model_set grp (List.filter (fun x -> x <> m) (model_members grp))
    | Op_prune pid ->
        let keep d = d <> pid in
        ignore (Groups.prune g ~keep);
        Hashtbl.iter
          (fun grp ms ->
            model_set grp
              (List.filter
                 (fun m ->
                   match Groups.daemon_of_member m with
                   | Some d -> keep d
                   | None -> false)
                 ms))
          (Hashtbl.copy model));
    (* Invariants after every step. *)
    List.for_all
      (fun grp ->
        let ms = Groups.members g grp in
        ms <> []  (* no empty groups are ever listed *)
        && ms = List.sort_uniq compare ms  (* sorted, dup-free *)
        && List.for_all Groups.valid_member_name ms
        && ms = model_members grp)
      (Groups.group_names g)
    && (* and the model has nothing the table lost *)
    Hashtbl.fold
      (fun grp ms acc -> acc && Groups.members g grp = ms)
      model true
  in
  List.for_all step ops

let prop_groups_invariants =
  QCheck.Test.make ~count:200
    ~name:"groups table matches model; sorted dup-free, no empty groups"
    groups_ops_arb check_groups_invariants

(* -------------------------------------------------------------------- *)
(* Simulated daemon cluster                                              *)

type client = {
  mutable inbox : (string * string list * string) list;  (* newest first *)
  mutable group_views : (string * string list) list;  (* newest first *)
}

type dcluster = {
  sim : Netsim.t;
  daemons : Daemon.t array;
  members : Member.t array;
}

let test_params =
  {
    (Params.accelerated ()) with
    token_loss_ns = ms 50;
    token_retransmit_ns = ms 10;
    join_retransmit_ns = ms 20;
    consensus_timeout_ns = ms 100;
    merge_probe_ns = ms 80;
  }

let make_dcluster ?(n = 3) () =
  let ring = Array.init n (fun i -> i) in
  let members =
    Array.init n (fun me ->
        Member.create ~params:test_params ~me ~initial_ring:ring ())
  in
  let daemons = Array.map (fun m -> Daemon.create ~member:m ()) members in
  let sim =
    Netsim.create ~net:Profile.gigabit
      ~tiers:(Array.make n Profile.daemon)
      ~participants:(Array.map Daemon.participant daemons)
      ~seed:3L ()
  in
  { sim; daemons; members }

let fresh_client () = { inbox = []; group_views = [] }

let callbacks_of client =
  {
    Daemon.on_message =
      (fun ~sender ~groups _service payload ->
        client.inbox <- (sender, groups, Bytes.to_string payload) :: client.inbox);
    on_group_view =
      (fun ~group ~members ->
        client.group_views <- (group, members) :: client.group_views);
  }

let test_group_multicast_members_only () =
  let c = make_dcluster () in
  let alice = fresh_client () and bob = fresh_client () and carol = fresh_client () in
  let s0 = Daemon.connect c.daemons.(0) ~name:"alice" (callbacks_of alice) in
  let s1 = Daemon.connect c.daemons.(1) ~name:"bob" (callbacks_of bob) in
  let _s2 = Daemon.connect c.daemons.(2) ~name:"carol" (callbacks_of carol) in
  Daemon.join c.daemons.(0) s0 "chat";
  Daemon.join c.daemons.(1) s1 "chat";
  Netsim.run_until c.sim (ms 20);
  (* Open-group semantics: carol sends without being a member. *)
  let carol_session = Daemon.connect c.daemons.(2) ~name:"carol2" (callbacks_of carol) in
  Daemon.multicast c.daemons.(2) carol_session ~groups:[ "chat" ]
    (Bytes.of_string "hi from outside");
  Netsim.run_until c.sim (ms 40);
  check Alcotest.int "alice got it" 1 (List.length alice.inbox);
  check Alcotest.int "bob got it" 1 (List.length bob.inbox);
  check Alcotest.int "carol (non-member) did not" 0 (List.length carol.inbox);
  let sender, groups, payload = List.hd alice.inbox in
  check Alcotest.string "sender name" "#carol2#2" sender;
  check (Alcotest.list Alcotest.string) "groups" [ "chat" ] groups;
  check Alcotest.string "payload" "hi from outside" payload

let test_multi_group_delivered_once () =
  let c = make_dcluster () in
  let both = fresh_client () and g1only = fresh_client () in
  let s_both = Daemon.connect c.daemons.(0) ~name:"both" (callbacks_of both) in
  let s_g1 = Daemon.connect c.daemons.(1) ~name:"g1only" (callbacks_of g1only) in
  Daemon.join c.daemons.(0) s_both "g1";
  Daemon.join c.daemons.(0) s_both "g2";
  Daemon.join c.daemons.(1) s_g1 "g1";
  Netsim.run_until c.sim (ms 20);
  Daemon.multicast c.daemons.(1) s_g1 ~groups:[ "g1"; "g2" ]
    (Bytes.of_string "cross-post");
  Netsim.run_until c.sim (ms 40);
  check Alcotest.int "member of both groups gets one copy" 1
    (List.length both.inbox);
  check Alcotest.int "g1 member gets one copy" 1 (List.length g1only.inbox);
  (* A group named more than once counts once. *)
  Daemon.multicast c.daemons.(1) s_g1 ~groups:[ "g1"; "g1" ] (Bytes.of_string "g1g1");
  Daemon.multicast c.daemons.(1) s_g1 ~groups:[ "g2"; "g1"; "g2" ]
    (Bytes.of_string "g2g1g2");
  Netsim.run_until c.sim (ms 60);
  List.iter
    (fun (who, (cl : client)) ->
      check (Alcotest.list Alcotest.string) (who ^ ": one copy each")
        [ "cross-post"; "g1g1"; "g2g1g2" ]
        (List.rev_map (fun (_, _, p) -> p) cl.inbox))
    [ ("both", both); ("g1only", g1only) ]

let test_group_views_consistent () =
  let c = make_dcluster () in
  let a = fresh_client () and b = fresh_client () in
  let sa = Daemon.connect c.daemons.(0) ~name:"a" (callbacks_of a) in
  let sb = Daemon.connect c.daemons.(1) ~name:"b" (callbacks_of b) in
  Daemon.join c.daemons.(0) sa "room";
  Netsim.run_until c.sim (ms 20);
  Daemon.join c.daemons.(1) sb "room";
  Netsim.run_until c.sim (ms 40);
  check (Alcotest.list Alcotest.string) "daemon 0 view" [ "#a#0"; "#b#1" ]
    (Daemon.group_members c.daemons.(0) "room");
  check (Alcotest.list Alcotest.string) "daemon 2 view" [ "#a#0"; "#b#1" ]
    (Daemon.group_members c.daemons.(2) "room");
  (* Clients were notified of each change, in order. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.string)))
    "a's view history"
    [ ("room", [ "#a#0" ]); ("room", [ "#a#0"; "#b#1" ]) ]
    (List.rev a.group_views);
  Daemon.leave c.daemons.(0) sa "room";
  Netsim.run_until c.sim (ms 60);
  check (Alcotest.list Alcotest.string) "after leave" [ "#b#1" ]
    (Daemon.group_members c.daemons.(2) "room")

let test_total_order_across_daemons () =
  let c = make_dcluster () in
  let clients = Array.init 3 (fun _ -> fresh_client ()) in
  let sessions =
    Array.init 3 (fun i ->
        Daemon.connect c.daemons.(i)
          ~name:(Printf.sprintf "cl%d" i)
          (callbacks_of clients.(i)))
  in
  Array.iteri (fun i s -> Daemon.join c.daemons.(i) s "g") sessions;
  Netsim.run_until c.sim (ms 20);
  for k = 1 to 20 do
    let i = k mod 3 in
    Daemon.multicast c.daemons.(i) sessions.(i) ~groups:[ "g" ]
      (Bytes.of_string (Printf.sprintf "m%d" k))
  done;
  Netsim.run_until c.sim (ms 100);
  let stream cl = List.rev_map (fun (_, _, p) -> p) cl.inbox in
  let s0 = stream clients.(0) in
  check Alcotest.int "all delivered" 20 (List.length s0);
  check Alcotest.bool "same order at 1" true (stream clients.(1) = s0);
  check Alcotest.bool "same order at 2" true (stream clients.(2) = s0)

let test_daemon_crash_prunes_groups () =
  let c = make_dcluster () in
  let a = fresh_client () and b = fresh_client () in
  let sa = Daemon.connect c.daemons.(0) ~name:"a" (callbacks_of a) in
  let sb = Daemon.connect c.daemons.(1) ~name:"b" (callbacks_of b) in
  Daemon.join c.daemons.(0) sa "room";
  Daemon.join c.daemons.(1) sb "room";
  Netsim.run_until c.sim (ms 20);
  Netsim.call_at c.sim ~at:(ms 25) (fun () -> Netsim.crash c.sim 1);
  Netsim.run_until c.sim (ms 2000);
  (* Daemon 1 is gone: the ring reformed and its members were pruned. *)
  check Alcotest.string "daemon 0 operational" "operational"
    (Member.state_name c.members.(0));
  check (Alcotest.list Alcotest.string) "room pruned to a" [ "#a#0" ]
    (Daemon.group_members c.daemons.(0) "room");
  check (Alcotest.list Alcotest.string) "daemon 2 agrees" [ "#a#0" ]
    (Daemon.group_members c.daemons.(2) "room");
  (* The surviving member saw the membership shrink. *)
  check Alcotest.bool "a notified of pruning" true
    (List.exists (fun (g, ms) -> g = "room" && ms = [ "#a#0" ]) a.group_views);
  (* And the group still works. *)
  Daemon.multicast c.daemons.(2)
    (Daemon.connect c.daemons.(2) ~name:"late" (callbacks_of (fresh_client ())))
    ~groups:[ "room" ]
    (Bytes.of_string "still alive");
  Netsim.run_until c.sim (ms 2100);
  check Alcotest.bool "a still receives" true
    (List.exists (fun (_, _, p) -> p = "still alive") a.inbox)

let test_disconnect_leaves_groups () =
  let c = make_dcluster () in
  let a = fresh_client () and b = fresh_client () in
  let sa = Daemon.connect c.daemons.(0) ~name:"a" (callbacks_of a) in
  let sb = Daemon.connect c.daemons.(1) ~name:"b" (callbacks_of b) in
  Daemon.join c.daemons.(0) sa "room";
  Daemon.join c.daemons.(1) sb "room";
  Netsim.run_until c.sim (ms 20);
  Daemon.disconnect c.daemons.(0) sa;
  Netsim.run_until c.sim (ms 40);
  check (Alcotest.list Alcotest.string) "only b remains" [ "#b#1" ]
    (Daemon.group_members c.daemons.(2) "room")

(* --------------------------------------------------------------------
   Session lifecycle. A disconnect must act like an atomic leave of every
   joined group, sequenced in the ring's total order AFTER anything the
   session multicast beforehand — so remote members never observe the
   departure before the departed session's last words. *)

(* A client that records messages and group views into one interleaved
   log, so ordering between deliveries and membership changes is
   observable. *)
type event = Msg of string * string | View of string * string list

let fresh_log () = ref []

let logging_callbacks log =
  {
    Daemon.on_message =
      (fun ~sender ~groups:_ _service payload ->
        log := Msg (sender, Bytes.to_string payload) :: !log);
    on_group_view =
      (fun ~group ~members -> log := View (group, members) :: !log);
  }

let test_disconnect_is_ordered_after_in_flight () =
  let c = make_dcluster () in
  let a = fresh_client () in
  let blog = fresh_log () in
  let sa = Daemon.connect c.daemons.(0) ~name:"a" (callbacks_of a) in
  let sb = Daemon.connect c.daemons.(1) ~name:"b" (logging_callbacks blog) in
  Daemon.join c.daemons.(0) sa "g1";
  Daemon.join c.daemons.(0) sa "g2";
  Daemon.join c.daemons.(1) sb "g1";
  Daemon.join c.daemons.(1) sb "g2";
  Netsim.run_until c.sim (ms 20);
  (* a multicasts to both groups and disconnects in the same instant: the
     messages were submitted first, so per-sender FIFO must order them
     before both Leave envelopes everywhere. *)
  Daemon.multicast c.daemons.(0) sa ~groups:[ "g1" ] (Bytes.of_string "last-1");
  Daemon.multicast c.daemons.(0) sa ~groups:[ "g2" ] (Bytes.of_string "last-2");
  Daemon.disconnect c.daemons.(0) sa;
  Netsim.run_until c.sim (ms 60);
  (* Every group lost exactly the departed member, at every daemon. *)
  List.iter
    (fun (g, who) ->
      for i = 0 to 2 do
        check (Alcotest.list Alcotest.string)
          (Printf.sprintf "daemon %d: %s pruned to %s" i g who)
          [ who ]
          (Daemon.group_members c.daemons.(i) g)
      done)
    [ ("g1", "#b#1"); ("g2", "#b#1") ];
  (* b's interleaved log shows each farewell BEFORE the matching shrink. *)
  let events = List.rev !blog in
  let index p =
    let rec go i = function
      | [] -> Alcotest.failf "event not found in b's log"
      | e :: _ when p e -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 events
  in
  let msg_ix payload = index (function Msg (_, p) -> p = payload | _ -> false)
  and shrink_ix group =
    index (function View (g, ms) -> g = group && ms = [ "#b#1" ] | _ -> false)
  in
  check Alcotest.bool "last-1 before g1 shrink" true
    (msg_ix "last-1" < shrink_ix "g1");
  check Alcotest.bool "last-2 before g2 shrink" true
    (msg_ix "last-2" < shrink_ix "g2");
  (* The disconnected session received nothing after the disconnect (its
     own farewells included: it was already gone locally). *)
  check Alcotest.int "a's inbox stays empty" 0 (List.length a.inbox)

let test_double_disconnect_idempotent () =
  let c = make_dcluster () in
  let olog = fresh_log () in
  let sa =
    Daemon.connect c.daemons.(0) ~name:"a" (callbacks_of (fresh_client ()))
  in
  let so = Daemon.connect c.daemons.(2) ~name:"obs" (logging_callbacks olog) in
  Daemon.join c.daemons.(0) sa "room";
  Daemon.join c.daemons.(2) so "room";
  Netsim.run_until c.sim (ms 20);
  Daemon.disconnect c.daemons.(0) sa;
  (* Second disconnect, and post-disconnect operations on the dead
     session handle, must all be silent no-ops. *)
  Daemon.disconnect c.daemons.(0) sa;
  Daemon.join c.daemons.(0) sa "room";
  Daemon.leave c.daemons.(0) sa "room";
  Daemon.multicast c.daemons.(0) sa ~groups:[ "room" ]
    (Bytes.of_string "ghost");
  Netsim.run_until c.sim (ms 60);
  check (Alcotest.list Alcotest.string) "room settled everywhere"
    [ "#obs#2" ]
    (Daemon.group_members c.daemons.(1) "room");
  let shrinks =
    List.length
      (List.filter
         (function View ("room", [ "#obs#2" ]) -> true | _ -> false)
         !olog)
  in
  check Alcotest.int "exactly one leave notification" 1 shrinks;
  check Alcotest.bool "no ghost message" true
    (List.for_all (function Msg (_, "ghost") -> false | _ -> true) !olog)

let test_leave_of_non_member_is_noop () =
  let c = make_dcluster () in
  let olog = fresh_log () in
  let sa =
    Daemon.connect c.daemons.(0) ~name:"a" (callbacks_of (fresh_client ()))
  in
  let so = Daemon.connect c.daemons.(2) ~name:"obs" (logging_callbacks olog) in
  Daemon.join c.daemons.(2) so "room";
  Netsim.run_until c.sim (ms 20);
  let before = List.length !olog in
  (* a never joined "room" (nor "ghost-room"): no Leave may ride the ring,
     so no daemon processes a spurious membership change. *)
  Daemon.leave c.daemons.(0) sa "room";
  Daemon.leave c.daemons.(0) sa "ghost-room";
  Netsim.run_until c.sim (ms 60);
  check Alcotest.int "observer saw no new events" before (List.length !olog);
  check (Alcotest.list Alcotest.string) "room unchanged" [ "#obs#2" ]
    (Daemon.group_members c.daemons.(1) "room")


(* -------------------------------------------------------------------- *)
(* Packing                                                               *)

let test_batch_envelope_roundtrip () =
  let batch =
    Envelope.Batch
      [
        Envelope.App { sender = "#a#0"; groups = [ "g" ]; payload = Bytes.of_string "1" };
        Envelope.Join { member = "#b#1"; group = "g" };
        Envelope.App { sender = "#a#0"; groups = [ "g" ]; payload = Bytes.of_string "2" };
      ]
  in
  check Alcotest.bool "batch roundtrips" true
    (Envelope.decode (Envelope.encode batch) = batch);
  Alcotest.check_raises "nested batch rejected"
    (Invalid_argument "Envelope.encode: nested batch") (fun () ->
      ignore (Envelope.encode (Envelope.Batch [ Envelope.Batch [] ])))

let make_packing_dcluster ?(n = 3) () =
  let ring = Array.init n (fun i -> i) in
  let members =
    Array.init n (fun me ->
        Member.create ~params:test_params ~me ~initial_ring:ring ())
  in
  let daemons =
    Array.map (fun m -> Daemon.create ~packing:true ~member:m ()) members
  in
  let sim =
    Netsim.create ~net:Profile.gigabit
      ~tiers:(Array.make n Profile.daemon)
      ~participants:(Array.map Daemon.participant daemons)
      ~seed:3L ()
  in
  { sim; daemons; members }

let test_packing_delivers_all_in_order () =
  let c = make_packing_dcluster () in
  let rx = fresh_client () in
  let s_rx = Daemon.connect c.daemons.(1) ~name:"rx" (callbacks_of rx) in
  Daemon.join c.daemons.(1) s_rx "small";
  Netsim.run_until c.sim (ms 20);
  let tx = Daemon.connect c.daemons.(0) ~name:"tx" (callbacks_of (fresh_client ())) in
  (* A burst of 50 tiny messages, submitted back to back: they must be
     packed into far fewer ring messages yet all arrive once, in order. *)
  for k = 1 to 50 do
    Daemon.multicast c.daemons.(0) tx ~groups:[ "small" ]
      (Bytes.of_string (Printf.sprintf "tiny-%02d" k))
  done;
  Netsim.run_until c.sim (ms 60);
  let payloads = List.rev_map (fun (_, _, p) -> p) rx.inbox in
  check Alcotest.int "all 50 delivered" 50 (List.length payloads);
  check Alcotest.bool "in submission order" true
    (payloads = List.init 50 (fun i -> Printf.sprintf "tiny-%02d" (i + 1)));
  let st = Daemon.stats c.daemons.(0) in
  check Alcotest.bool "packing actually happened" true (st.packs_sent > 0);
  check Alcotest.bool "many envelopes per pack" true (st.envelopes_packed >= 40);
  (* Far fewer protocol messages than client messages. *)
  (match Member.node c.members.(0) with
  | Some node ->
      check Alcotest.bool "few ring messages" true
        ((Engine.stats (Node.engine node)).new_sent < 20)
  | None -> Alcotest.fail "daemon not operational")

let test_packing_respects_threshold () =
  let c = make_packing_dcluster () in
  let rx = fresh_client () in
  let s_rx = Daemon.connect c.daemons.(1) ~name:"rx" (callbacks_of rx) in
  Daemon.join c.daemons.(1) s_rx "big";
  Netsim.run_until c.sim (ms 20);
  let tx = Daemon.connect c.daemons.(0) ~name:"tx" (callbacks_of (fresh_client ())) in
  (* Large messages bypass packing entirely. *)
  for _ = 1 to 5 do
    Daemon.multicast c.daemons.(0) tx ~groups:[ "big" ] (Bytes.create 2000)
  done;
  Netsim.run_until c.sim (ms 60);
  check Alcotest.int "all large delivered" 5 (List.length rx.inbox);
  check Alcotest.int "no packs for large messages" 0
    (Daemon.stats c.daemons.(0)).packs_sent

let test_packing_mixed_services_flush () =
  let c = make_packing_dcluster () in
  let rx = fresh_client () in
  let s_rx = Daemon.connect c.daemons.(1) ~name:"rx" (callbacks_of rx) in
  Daemon.join c.daemons.(1) s_rx "g";
  Netsim.run_until c.sim (ms 20);
  let tx = Daemon.connect c.daemons.(0) ~name:"tx" (callbacks_of (fresh_client ())) in
  (* Alternate services: the packer flushes at each boundary but delivery
     order must still match submission order. *)
  for k = 1 to 10 do
    let service = if k mod 2 = 0 then Types.Safe else Types.Agreed in
    Daemon.multicast c.daemons.(0) tx ~service ~groups:[ "g" ]
      (Bytes.of_string (Printf.sprintf "mix-%02d" k))
  done;
  Netsim.run_until c.sim (ms 80);
  let payloads = List.rev_map (fun (_, _, p) -> p) rx.inbox in
  check Alcotest.int "all delivered" 10 (List.length payloads);
  check Alcotest.bool "submission order preserved" true
    (payloads = List.init 10 (fun i -> Printf.sprintf "mix-%02d" (i + 1)))


(* --------------------------------------------------------------------
   Packing properties. The packer is deterministic and synchronous, so we
   can drive it without a simulator: a single-node bootstrapped member is
   operational immediately after [start], and everything the daemon
   submits lands in its engine's pending queue, where [drain_pending]
   shows exactly the (service, payload) pairs that would hit the ring. *)

type pack_op = {
  op_sender : int;  (* which of three sessions submits *)
  op_safe : bool;  (* Safe instead of Agreed *)
  op_len : int;  (* payload padding length *)
  op_flush : bool;  (* force a flush after this submission *)
}

let pack_op_gen =
  QCheck.Gen.(
    map
      (fun (op_sender, op_safe, op_len, op_flush) ->
        { op_sender; op_safe; op_len; op_flush })
      (quad (int_bound 2) bool (int_bound 300)
         (map (fun n -> n = 0) (int_bound 4))))

let pack_ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (fun o ->
             Printf.sprintf "(s%d %s len=%d%s)" o.op_sender
               (if o.op_safe then "safe" else "agreed")
               o.op_len
               (if o.op_flush then " flush" else ""))
           ops))
    QCheck.Gen.(list_size (int_range 1 60) pack_op_gen)

(* Run a submission schedule through a packing daemon; returns what
   reached the ring, oldest first, and the submission log (sender,
   service, payload string), also oldest first. *)
let run_packer ?(pack_threshold = 1300) ops =
  let member = Member.create ~params:test_params ~me:0 ~initial_ring:[| 0 |] () in
  ignore ((Member.participant member).Participant.start ());
  let d = Daemon.create ~packing:true ~pack_threshold ~member () in
  let sessions =
    Array.init 3 (fun i ->
        Daemon.connect d
          ~name:(Printf.sprintf "s%d" i)
          (callbacks_of (fresh_client ())))
  in
  let log =
    List.mapi
      (fun k op ->
        let payload =
          Printf.sprintf "%d/%d/%s" op.op_sender k (String.make op.op_len 'x')
        in
        let service = if op.op_safe then Types.Safe else Types.Agreed in
        Daemon.multicast d sessions.(op.op_sender) ~service ~groups:[ "g" ]
          (Bytes.of_string payload);
        if op.op_flush then Daemon.flush d;
        (op.op_sender, service, payload))
      ops
  in
  Daemon.flush d;
  let ring_submissions =
    match Member.node member with
    | None -> failwith "single-node member not operational"
    | Some node -> Engine.drain_pending (Node.engine node)
  in
  (ring_submissions, log)

(* Flatten one ring submission into the App payloads it carries, in ring
   order. *)
let apps_of_submission (_service, bytes) =
  let rec apps env =
    match env with
    | Envelope.Batch entries -> List.concat_map apps entries
    | Envelope.App { sender; payload; _ } ->
        [ (sender, Bytes.to_string payload) ]
    | Envelope.Join _ | Envelope.Leave _ -> []
  in
  apps (Envelope.decode bytes)

let prop_packing_fifo_per_sender =
  QCheck.Test.make ~count:100
    ~name:"packing preserves per-sender FIFO across flushes" pack_ops_arb
    (fun ops ->
      let ring_submissions, log = run_packer ops in
      let delivered = List.concat_map apps_of_submission ring_submissions in
      List.for_all
        (fun s ->
          let sender = Printf.sprintf "#s%d#0" s in
          let got =
            List.filter_map
              (fun (who, p) -> if who = sender then Some p else None)
              delivered
          in
          let submitted =
            List.filter_map
              (fun (who, _, p) -> if who = s then Some p else None)
              log
          in
          got = submitted)
        [ 0; 1; 2 ])

let prop_packing_batches_single_service =
  QCheck.Test.make ~count:100 ~name:"a batch never mixes services"
    pack_ops_arb (fun ops ->
      let ring_submissions, log = run_packer ops in
      let service_of_payload =
        List.map (fun (_, service, p) -> (p, service)) log
      in
      List.for_all
        (fun (ring_service, bytes) ->
          match Envelope.decode bytes with
          | Envelope.Batch entries ->
              List.for_all
                (function
                  | Envelope.App { payload; _ } ->
                      Types.service_equal ring_service
                        (List.assoc (Bytes.to_string payload) service_of_payload)
                  | _ -> true)
                entries
          | _ -> true)
        ring_submissions)

let prop_packing_respects_threshold =
  QCheck.Test.make ~count:100
    ~name:"packed batches never exceed the pack threshold" pack_ops_arb
    (fun ops ->
      let threshold = 700 in
      let ring_submissions, _ = run_packer ~pack_threshold:threshold ops in
      List.for_all
        (fun (_, bytes) ->
          match Envelope.decode bytes with
          | Envelope.Batch entries ->
              List.length entries >= 2
              && List.fold_left
                   (fun acc e -> acc + Envelope.encoded_size e)
                   0 entries
                 <= threshold
          | env ->
              (* Unpacked submissions are single envelopes: either they fit
                 under the threshold but had no companion, or they were too
                 large to pack at all. *)
              ignore env;
              true)
        ring_submissions)

let test_group_state_reconverges_after_merge () =
  (* Group membership diverges during a partition (each side only sees its
     own joins); the post-merge re-announcement rebuilds one consistent
     view everywhere. *)
  let c = make_dcluster ~n:4 () in
  let clients = Array.init 4 (fun _ -> fresh_client ()) in
  let sessions =
    Array.init 4 (fun i ->
        Daemon.connect c.daemons.(i)
          ~name:(Printf.sprintf "u%d" i)
          (callbacks_of clients.(i)))
  in
  Daemon.join c.daemons.(0) sessions.(0) "shared";
  Netsim.run_until c.sim (ms 20);
  (* Partition {0,1} | {2,3}; each side gains a member of "shared". *)
  Netsim.set_drop c.sim (fun ~src ~dst _ -> src / 2 <> dst / 2);
  Netsim.call_at c.sim ~at:(ms 30) (fun () ->
      Daemon.join c.daemons.(1) sessions.(1) "shared");
  Netsim.call_at c.sim ~at:(ms 30) (fun () ->
      Daemon.join c.daemons.(3) sessions.(3) "shared");
  Netsim.run_until c.sim (ms 1500);
  (* Divergent views while partitioned. *)
  check (Alcotest.list Alcotest.string) "left view" [ "#u0#0"; "#u1#1" ]
    (Daemon.group_members c.daemons.(0) "shared");
  check (Alcotest.list Alcotest.string) "right view" [ "#u3#3" ]
    (Daemon.group_members c.daemons.(2) "shared");
  (* Heal and let the rings merge + re-announce. *)
  Netsim.call_at c.sim ~at:(ms 1600) (fun () ->
      Netsim.set_drop c.sim (fun ~src:_ ~dst:_ _ -> false));
  Netsim.run_until c.sim (ms 5000);
  let expected = [ "#u0#0"; "#u1#1"; "#u3#3" ] in
  for i = 0 to 3 do
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "daemon %d reconverged" i)
      expected
      (Daemon.group_members c.daemons.(i) "shared")
  done;
  (* And the group works cluster-wide again. *)
  Daemon.multicast c.daemons.(2) sessions.(2) ~groups:[ "shared" ]
    (Bytes.of_string "post-merge");
  Netsim.run_until c.sim (ms 5200);
  List.iter
    (fun i ->
      check Alcotest.bool
        (Printf.sprintf "client %d got post-merge" i)
        true
        (List.exists (fun (_, _, p) -> p = "post-merge") clients.(i).inbox))
    [ 0; 1; 3 ]

(* -------------------------------------------------------------------- *)
(* Slow receivers                                                        *)

let payloads_oldest_first (cl : client) =
  List.rev_map (fun (_, _, p) -> p) cl.inbox

let test_slow_receiver_isolation () =
  (* A slow receiver that never drains must not delay delivery to a
     healthy session on the same daemon; its messages park in the inbox
     in FIFO order and pump out in bounded batches. *)
  let c = make_dcluster ~n:3 () in
  let fast = fresh_client () and slow = fresh_client () and src = fresh_client () in
  let fast_s = Daemon.connect c.daemons.(0) ~name:"fast" (callbacks_of fast) in
  let slow_s = Daemon.connect c.daemons.(0) ~name:"slow" (callbacks_of slow) in
  let src_s = Daemon.connect c.daemons.(1) ~name:"src" (callbacks_of src) in
  Daemon.join c.daemons.(0) fast_s "g";
  Daemon.join c.daemons.(0) slow_s "g";
  Netsim.run_until c.sim (ms 10);
  Daemon.set_slow_receiver c.daemons.(0) slow_s true;
  for i = 0 to 19 do
    Netsim.call_at c.sim
      ~at:(ms 12 + (i * 200_000))
      (fun () ->
        Daemon.multicast c.daemons.(1) src_s ~groups:[ "g" ]
          (Bytes.of_string (Printf.sprintf "m%02d" i)))
  done;
  Netsim.run_until c.sim (ms 40);
  check Alcotest.int "healthy session got everything" 20
    (List.length fast.inbox);
  check Alcotest.int "slow callback never fired" 0 (List.length slow.inbox);
  check Alcotest.int "messages parked" 20
    (Daemon.inbox_depth c.daemons.(0) slow_s);
  check Alcotest.int "pump batch 1" 7 (Daemon.pump c.daemons.(0) slow_s ~max:7);
  check Alcotest.int "pump batch 2" 7 (Daemon.pump c.daemons.(0) slow_s ~max:7);
  check Alcotest.int "pump remainder" 6
    (Daemon.pump c.daemons.(0) slow_s ~max:100);
  check Alcotest.int "pump empty" 0 (Daemon.pump c.daemons.(0) slow_s ~max:4);
  check Alcotest.int "inbox drained" 0
    (Daemon.inbox_depth c.daemons.(0) slow_s);
  check (Alcotest.list Alcotest.string) "same stream, same order"
    (payloads_oldest_first fast)
    (payloads_oldest_first slow)

let test_slow_receiver_unmark_and_disconnect () =
  let c = make_dcluster ~n:3 () in
  let slow = fresh_client () and src = fresh_client () in
  let slow_s = Daemon.connect c.daemons.(0) ~name:"slow" (callbacks_of slow) in
  let src_s = Daemon.connect c.daemons.(1) ~name:"src" (callbacks_of src) in
  Daemon.join c.daemons.(0) slow_s "g";
  Netsim.run_until c.sim (ms 10);
  Daemon.set_slow_receiver c.daemons.(0) slow_s true;
  for i = 0 to 4 do
    Netsim.call_at c.sim
      ~at:(ms 12 + (i * 200_000))
      (fun () ->
        Daemon.multicast c.daemons.(1) src_s ~groups:[ "g" ]
          (Bytes.of_string (Printf.sprintf "m%d" i)))
  done;
  Netsim.run_until c.sim (ms 30);
  check Alcotest.int "backlog parked" 5 (Daemon.inbox_depth c.daemons.(0) slow_s);
  (* Unmarking hands the backlog over in order and reverts to direct
     delivery. *)
  Daemon.set_slow_receiver c.daemons.(0) slow_s false;
  check (Alcotest.list Alcotest.string) "backlog delivered in order"
    [ "m0"; "m1"; "m2"; "m3"; "m4" ]
    (payloads_oldest_first slow);
  check Alcotest.int "inbox gone" 0 (Daemon.inbox_depth c.daemons.(0) slow_s);
  Netsim.call_at c.sim ~at:(ms 32) (fun () ->
      Daemon.multicast c.daemons.(1) src_s ~groups:[ "g" ]
        (Bytes.of_string "direct"));
  Netsim.run_until c.sim (ms 50);
  check Alcotest.bool "direct delivery resumed" true
    (List.exists (fun (_, _, p) -> p = "direct") slow.inbox);
  (* A disconnected slow receiver drops its parked backlog. *)
  Daemon.set_slow_receiver c.daemons.(0) slow_s true;
  Netsim.call_at c.sim ~at:(ms 52) (fun () ->
      Daemon.multicast c.daemons.(1) src_s ~groups:[ "g" ]
        (Bytes.of_string "doomed"));
  Netsim.run_until c.sim (ms 70);
  check Alcotest.int "parked again" 1 (Daemon.inbox_depth c.daemons.(0) slow_s);
  Daemon.disconnect c.daemons.(0) slow_s;
  check Alcotest.int "dropped with the connection" 0
    (Daemon.inbox_depth c.daemons.(0) slow_s)

(* -------------------------------------------------------------------- *)
(* Reconnect storm mid-view                                              *)

type storm_sess = {
  st_name : string;
  st_daemon : int;
  mutable st_handle : Daemon.session option;
  mutable st_counter : int;
  st_client : client;
}

let test_reconnect_storm_mid_view () =
  (* 24 chatty sessions all disconnect at once and reconnect 3 ms later,
     while a partition cuts the observer's daemon away and heals — the
     Leave/Join flood is ordered across a view change and a merge. The
     invariants: per-sender FIFO (counters strictly increase in delivery
     order, gaps allowed across views), exactly-once delivery, and
     reconverged group state that routes to every reconnected session. *)
  let c = make_dcluster ~n:3 () in
  let obs = fresh_client () in
  let obs_s = Daemon.connect c.daemons.(2) ~name:"obs" (callbacks_of obs) in
  Daemon.join c.daemons.(2) obs_s "storm";
  let sessions =
    Array.init 24 (fun i ->
        {
          st_name = Printf.sprintf "s%02d" i;
          st_daemon = i mod 2;
          st_handle = None;
          st_counter = 0;
          st_client = fresh_client ();
        })
  in
  let connect ss =
    let h =
      Daemon.connect c.daemons.(ss.st_daemon) ~name:ss.st_name
        (callbacks_of ss.st_client)
    in
    Daemon.join c.daemons.(ss.st_daemon) h "storm";
    ss.st_handle <- Some h
  in
  Array.iter connect sessions;
  Array.iter
    (fun ss ->
      let rec tick () =
        let now = Netsim.now c.sim in
        if now < ms 60 then begin
          (match ss.st_handle with
          | Some h ->
              ss.st_counter <- ss.st_counter + 1;
              Daemon.multicast c.daemons.(ss.st_daemon) h ~groups:[ "storm" ]
                (Bytes.of_string
                   (Printf.sprintf "%s:%d" ss.st_name ss.st_counter))
          | None -> ());
          Netsim.call_at c.sim ~at:(now + ms 2) tick
        end
      in
      Netsim.call_at c.sim ~at:(ms 5) tick)
    sessions;
  (* Cut the observer's daemon away across the storm window. *)
  Netsim.call_at c.sim ~at:(ms 28) (fun () ->
      Netsim.set_drop_until c.sim ~until:(ms 55) (fun ~src ~dst _ ->
          src = 2 <> (dst = 2)));
  Netsim.call_at c.sim ~at:(ms 30) (fun () ->
      Array.iter
        (fun ss ->
          match ss.st_handle with
          | Some h ->
              Daemon.disconnect c.daemons.(ss.st_daemon) h;
              ss.st_handle <- None
          | None -> ())
        sessions);
  Netsim.call_at c.sim ~at:(ms 33) (fun () -> Array.iter connect sessions);
  Netsim.call_at c.sim ~at:(ms 150) (fun () ->
      Daemon.multicast c.daemons.(2) obs_s ~groups:[ "storm" ]
        (Bytes.of_string "obs:probe"));
  Netsim.run_until c.sim (ms 400);
  (* Per-sender FIFO and exactly-once, at the observer and at every
     storm session. *)
  let check_stream who (cl : client) =
    let seen = Hashtbl.create 256 in
    let last = Hashtbl.create 64 in
    List.iter
      (fun (_, _, payload) ->
        match String.split_on_char ':' payload with
        | [ name; num ] when num <> "probe" ->
            let k = int_of_string num in
            if Hashtbl.mem seen (name, k) then
              Alcotest.failf "%s saw %s:%d twice" who name k;
            Hashtbl.replace seen (name, k) ();
            (match Hashtbl.find_opt last name with
            | Some prev when prev >= k ->
                Alcotest.failf "%s: sender %s went %d -> %d" who name prev k
            | _ -> ());
            Hashtbl.replace last name k
        | _ -> ())
      (List.rev cl.inbox)
  in
  check_stream "obs" obs;
  Array.iter (fun ss -> check_stream ss.st_name ss.st_client) sessions;
  (* The post-storm probe reached every reconnected session exactly
     once. *)
  let probes (cl : client) =
    List.length (List.filter (fun (_, _, p) -> p = "obs:probe") cl.inbox)
  in
  check Alcotest.int "observer sees its own probe" 1 (probes obs);
  Array.iter
    (fun ss ->
      check Alcotest.int
        (Printf.sprintf "%s got the probe once" ss.st_name)
        1
        (probes ss.st_client))
    sessions;
  (* Group state reconverged identically on every daemon: 24 storm
     sessions plus the observer. *)
  let reference = Daemon.group_members c.daemons.(0) "storm" in
  check Alcotest.int "full membership" 25 (List.length reference);
  for i = 1 to 2 do
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "daemon %d group view" i)
      reference
      (Daemon.group_members c.daemons.(i) "storm")
  done

(* --------------------------------------------------------------------
   Routing edge cases. Union routing (see [Daemon.multicast]) admits a
   local session while the group is in its own joined set or its member
   name is in the delivered table; each case below pins one corner of
   that rule that a per-group recipient index can get wrong. *)

let test_reconnect_inherits_table_entry () =
  (* [a] disconnects and reconnects under the same name in one instant,
     right after a message was submitted from its daemon. Per-daemon FIFO
     orders that message before the predecessor's Leave, and the
     delivered table still names "#a#0" when it lands, so the new session
     receives it; nothing ordered after the Leave reaches it. *)
  let c = make_dcluster () in
  let old_a = fresh_client () and new_a = fresh_client () in
  let sa = Daemon.connect c.daemons.(0) ~name:"a" (callbacks_of old_a) in
  let tx = Daemon.connect c.daemons.(0) ~name:"tx" (callbacks_of (fresh_client ())) in
  Daemon.join c.daemons.(0) sa "g";
  Netsim.run_until c.sim (ms 20);
  Daemon.multicast c.daemons.(0) tx ~groups:[ "g" ] (Bytes.of_string "before");
  Daemon.disconnect c.daemons.(0) sa;
  ignore (Daemon.connect c.daemons.(0) ~name:"a" (callbacks_of new_a));
  Netsim.run_until c.sim (ms 40);
  check (Alcotest.list Alcotest.string) "Leave landed" []
    (Daemon.group_members c.daemons.(0) "g");
  Daemon.multicast c.daemons.(0) tx ~groups:[ "g" ] (Bytes.of_string "after");
  Netsim.run_until c.sim (ms 60);
  check (Alcotest.list Alcotest.string) "old session got nothing" []
    (payloads_oldest_first old_a);
  check (Alcotest.list Alcotest.string) "new session: only what preceded the Leave"
    [ "before" ] (payloads_oldest_first new_a)

let test_leave_and_rejoin_same_instant () =
  (* Leaving and rejoining in one instant keeps the session routed the
     whole way: the joined half covers it from the rejoin call, the table
     from its re-announced Join. Its group views come from the table, so
     it is not told of its own Leave, and the last view names it again. *)
  let c = make_dcluster () in
  let alog = fresh_log () in
  let sa = Daemon.connect c.daemons.(0) ~name:"a" (logging_callbacks alog) in
  let sb = Daemon.connect c.daemons.(1) ~name:"b" (callbacks_of (fresh_client ())) in
  let tx = Daemon.connect c.daemons.(2) ~name:"tx" (callbacks_of (fresh_client ())) in
  Daemon.join c.daemons.(0) sa "g";
  Daemon.join c.daemons.(1) sb "g";
  Netsim.run_until c.sim (ms 20);
  alog := [];
  for i = 0 to 39 do
    Netsim.call_at c.sim
      ~at:(ms 20 + (i * 250_000))
      (fun () ->
        Daemon.multicast c.daemons.(2) tx ~groups:[ "g" ]
          (Bytes.of_string (Printf.sprintf "m%02d" i)))
  done;
  Netsim.call_at c.sim ~at:(ms 22) (fun () ->
      Daemon.leave c.daemons.(0) sa "g";
      Daemon.join c.daemons.(0) sa "g");
  Netsim.run_until c.sim (ms 60);
  let events = List.rev !alog in
  check (Alcotest.list Alcotest.string) "every message, in order"
    (List.init 40 (Printf.sprintf "m%02d"))
    (List.filter_map (function Msg (_, p) -> Some p | View _ -> None) events);
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "one view: the re-announced Join"
    [ [ "#a#0"; "#b#1" ] ]
    (List.filter_map (function View (_, ms) -> Some ms | Msg _ -> None) events);
  check (Alcotest.list Alcotest.string) "member again everywhere"
    [ "#a#0"; "#b#1" ]
    (Daemon.group_members c.daemons.(2) "g")

let test_prune_keeps_local_members () =
  (* Cut daemon 2 away: its table drops the members of daemons 0 and 1
     and keeps its own, whose sessions are told of the shrunk view and
     keep receiving on their side. The heal restores the full view. *)
  let c = make_dcluster () in
  let a = fresh_client () and b = fresh_client () in
  let s0 = Daemon.connect c.daemons.(0) ~name:"x" (callbacks_of (fresh_client ())) in
  let s1 = Daemon.connect c.daemons.(1) ~name:"y" (callbacks_of (fresh_client ())) in
  let sa = Daemon.connect c.daemons.(2) ~name:"a" (callbacks_of a) in
  let sb = Daemon.connect c.daemons.(2) ~name:"b" (callbacks_of b) in
  List.iter (fun (i, s) -> Daemon.join c.daemons.(i) s "g")
    [ (0, s0); (1, s1); (2, sa); (2, sb) ];
  Netsim.run_until c.sim (ms 20);
  let full = [ "#a#2"; "#b#2"; "#x#0"; "#y#1" ] in
  check (Alcotest.list Alcotest.string) "full view" full
    (Daemon.group_members c.daemons.(2) "g");
  a.group_views <- [];
  Netsim.set_drop_until c.sim ~until:(ms 1000) (fun ~src ~dst _ ->
      src = 2 <> (dst = 2));
  Netsim.run_until c.sim (ms 900);
  check (Alcotest.list Alcotest.string) "cut side keeps its own" [ "#a#2"; "#b#2" ]
    (Daemon.group_members c.daemons.(2) "g");
  check (Alcotest.list Alcotest.string) "other side keeps its own" [ "#x#0"; "#y#1" ]
    (Daemon.group_members c.daemons.(0) "g");
  check Alcotest.bool "local session told of the pruned view" true
    (List.mem ("g", [ "#a#2"; "#b#2" ]) a.group_views);
  Daemon.multicast c.daemons.(2) sb ~groups:[ "g" ] (Bytes.of_string "cut");
  Netsim.run_until c.sim (ms 950);
  check (Alcotest.list Alcotest.string) "local delivery while cut" [ "cut" ]
    (payloads_oldest_first a);
  Netsim.run_until c.sim (ms 3000);
  for i = 0 to 2 do
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "daemon %d healed" i)
      full
      (Daemon.group_members c.daemons.(i) "g")
  done;
  check (Alcotest.list Alcotest.string) "last view is the full one" full
    (snd (List.hd a.group_views))

let test_notifications_and_deliveries_in_name_order () =
  (* '!' sorts before '#', so "x!" follows "x" in session-name order but
     precedes it in member-name order ("#x!#0" < "#x#0"). *)
  let c = make_dcluster () in
  let log = ref [] in
  let cb name =
    {
      Daemon.on_message =
        (fun ~sender:_ ~groups:_ _ _ -> log := ("msg", name) :: !log);
      on_group_view = (fun ~group:_ ~members:_ -> log := ("view", name) :: !log);
    }
  in
  List.iter
    (fun name ->
      Daemon.join c.daemons.(0) (Daemon.connect c.daemons.(0) ~name (cb name)) "g")
    [ "x!"; "b"; "x" ];
  Netsim.run_until c.sim (ms 20);
  log := [];
  let late = Daemon.connect c.daemons.(1) ~name:"late" (callbacks_of (fresh_client ())) in
  Daemon.join c.daemons.(1) late "g";
  Netsim.run_until c.sim (ms 40);
  Daemon.multicast c.daemons.(1) late ~groups:[ "g" ] (Bytes.of_string "m");
  Netsim.run_until c.sim (ms 60);
  let in_order = [ "b"; "x"; "x!" ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "views, then messages, each in session-name order"
    (List.map (fun n -> ("view", n)) in_order
    @ List.map (fun n -> ("msg", n)) in_order)
    (List.rev !log)

(* --------------------------------------------------------------------
   Model-based routing. Random connect / join / leave / disconnect /
   reconnect / cut-and-heal sequences on a 3-daemon cluster, probed by
   outside sessions around every step: from the step's own daemon just
   before it (FIFO orders that probe ahead of the step's Join or Leave,
   so it lands while the table and the joined set disagree), from the
   next daemon just after it, and once more after the cluster settles.
   The reference is the union-routing rule itself,
   evaluated over this test's own record of join calls and the delivered
   table [Daemon.group_members], at the instant the probe is delivered:
   a witness session joined to every group captures that instant at each
   daemon, since one delivery reaches all its local recipients at once. *)

type rstep =
  | R_connect of int * string
  | R_join of int * string * string
  | R_leave of int * string * string
  | R_disconnect of int * string
  | R_reconnect of int * string
  | R_cut of int

let rgroups = [ "g0"; "g1" ]

let rstep_gen =
  QCheck.Gen.(
    let daemon = int_bound 2 and name = oneofl [ "a"; "b" ] in
    let group = oneofl rgroups in
    frequency
      [
        (3, map2 (fun d n -> R_connect (d, n)) daemon name);
        (5, map3 (fun d n g -> R_join (d, n, g)) daemon name group);
        (3, map3 (fun d n g -> R_leave (d, n, g)) daemon name group);
        (2, map2 (fun d n -> R_disconnect (d, n)) daemon name);
        (2, map2 (fun d n -> R_reconnect (d, n)) daemon name);
        (1, map (fun d -> R_cut d) daemon);
      ])

let pp_rstep = function
  | R_connect (d, n) -> Printf.sprintf "connect(%d,%s)" d n
  | R_join (d, n, g) -> Printf.sprintf "join(%d,%s,%s)" d n g
  | R_leave (d, n, g) -> Printf.sprintf "leave(%d,%s,%s)" d n g
  | R_disconnect (d, n) -> Printf.sprintf "disconnect(%d,%s)" d n
  | R_reconnect (d, n) -> Printf.sprintf "reconnect(%d,%s)" d n
  | R_cut d -> Printf.sprintf "cut(%d)" d

let rsteps_arb =
  QCheck.make
    ~print:(fun steps -> String.concat ";" (List.map pp_rstep steps))
    QCheck.Gen.(list_size (int_range 1 14) rstep_gen)

(* One connected session incarnation, as this test recorded it. *)
type rsess = {
  r_id : int;
  r_daemon : int;
  r_name : string;
  r_handle : Daemon.session;
  mutable r_joined : string list;
}

let is_probe payload = String.length payload > 6 && String.sub payload 0 6 = "probe:"

let check_routing_model steps =
  let c = make_dcluster () in
  let live = Hashtbl.create 8 in  (* (daemon, name) -> rsess *)
  let received = Hashtbl.create 64 in  (* (incarnation, probe) -> copies *)
  let expected = Hashtbl.create 64 in  (* (daemon, probe) -> incarnations *)
  let owner = Hashtbl.create 16 in  (* incarnation -> daemon *)
  let in_union_routing d s groups =
    let tabled g =
      List.mem
        (Envelope.member_name ~daemon:d ~session:s.r_name)
        (Daemon.group_members c.daemons.(d) g)
    in
    List.exists (fun g -> List.mem g s.r_joined || tabled g) groups
  in
  let witness d =
    {
      Daemon.on_message =
        (fun ~sender:_ ~groups _ payload ->
          let p = Bytes.to_string payload in
          if Hashtbl.mem expected (d, p) then
            Alcotest.failf "witness %d saw %s twice" d p;
          Hashtbl.replace expected (d, p)
            (Hashtbl.fold
               (fun _ s acc ->
                 if s.r_daemon = d && in_union_routing d s groups then
                   s.r_id :: acc
                 else acc)
               live []));
      on_group_view = (fun ~group:_ ~members:_ -> ());
    }
  in
  let probers =
    Array.init 3 (fun d ->
        let w = Daemon.connect c.daemons.(d) ~name:"w" (witness d) in
        List.iter (Daemon.join c.daemons.(d) w) rgroups;
        Daemon.connect c.daemons.(d) ~name:"p" (callbacks_of (fresh_client ())))
  in
  Netsim.run_until c.sim (ms 20);
  let connect d name =
    let id = Hashtbl.length owner in
    Hashtbl.replace owner id d;
    let cb =
      {
        Daemon.on_message =
          (fun ~sender:_ ~groups:_ _ payload ->
            let p = Bytes.to_string payload in
            if is_probe p then
              Hashtbl.replace received (id, p)
                (1 + Option.value ~default:0 (Hashtbl.find_opt received (id, p))));
        on_group_view = (fun ~group:_ ~members:_ -> ());
      }
    in
    let h = Daemon.connect c.daemons.(d) ~name cb in
    Hashtbl.replace live (d, name)
      { r_id = id; r_daemon = d; r_name = name; r_handle = h; r_joined = [] }
  in
  let disconnect d name =
    Option.iter
      (fun s ->
        Daemon.disconnect c.daemons.(d) s.r_handle;
        Hashtbl.remove live (d, name))
      (Hashtbl.find_opt live (d, name))
  in
  let with_live d name f = Option.iter f (Hashtbl.find_opt live (d, name)) in
  let probe_all ~from k tag =
    let probe tag groups =
      Daemon.multicast c.daemons.(from) probers.(from) ~groups
        (Bytes.of_string (Printf.sprintf "probe:%d:%s" k tag))
    in
    List.iter (fun g -> probe (tag ^ g) [ g ]) rgroups;
    probe (tag ^ "*") [ "g1"; "g0"; "g1" ]
  in
  List.iteri
    (fun k step ->
      let at =
        match step with
        | R_connect (d, _) | R_join (d, _, _) | R_leave (d, _, _)
        | R_disconnect (d, _) | R_reconnect (d, _) | R_cut d -> d
      in
      probe_all ~from:at k "before:";
      let settle =
        match step with
        | R_connect (d, n) ->
            if not (Hashtbl.mem live (d, n)) then connect d n;
            ms 30
        | R_join (d, n, g) ->
            with_live d n (fun s ->
                Daemon.join c.daemons.(d) s.r_handle g;
                if not (List.mem g s.r_joined) then s.r_joined <- g :: s.r_joined);
            ms 30
        | R_leave (d, n, g) ->
            with_live d n (fun s ->
                Daemon.leave c.daemons.(d) s.r_handle g;
                s.r_joined <- List.filter (( <> ) g) s.r_joined);
            ms 30
        | R_disconnect (d, n) ->
            disconnect d n;
            ms 30
        | R_reconnect (d, n) ->
            disconnect d n;
            connect d n;
            ms 30
        | R_cut d ->
            let now = Netsim.now c.sim in
            Netsim.set_drop_until c.sim ~until:(now + ms 150) (fun ~src ~dst _ ->
                src = d <> (dst = d));
            ms 1200
      in
      probe_all ~from:((at + 1) mod 3) k "after:";
      Netsim.run_until c.sim (Netsim.now c.sim + settle);
      probe_all ~from:(k mod 3) k "settled:";
      Netsim.run_until c.sim (Netsim.now c.sim + ms 30))
    steps;
  (* Every expected copy arrived exactly once ... *)
  Hashtbl.iter
    (fun (d, p) ids ->
      List.iter
        (fun id ->
          match Hashtbl.find_opt received (id, p) with
          | Some 1 -> ()
          | got ->
              QCheck.Test.fail_reportf "daemon %d, %s: session %d got %d copies" d
                p id (Option.value ~default:0 got))
        ids)
    expected;
  (* ... and nothing else did. *)
  Hashtbl.iter
    (fun (id, p) _ ->
      match Hashtbl.find_opt expected (Hashtbl.find owner id, p) with
      | Some ids when List.mem id ids -> ()
      | _ ->
          QCheck.Test.fail_reportf
            "session %d got %s, which the rule does not route to it" id p)
    received;
  true

let prop_routing_matches_union_rule =
  QCheck.Test.make ~count:40
    ~name:"routing matches the union rule across connect/join/leave/reconnect/cut"
    rsteps_arb check_routing_model

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    ("envelope roundtrips", `Quick, test_envelope_roundtrips);
    qtest prop_envelope_roundtrip;
    ("envelope rejects garbage", `Quick, test_envelope_rejects_garbage);
    ("groups join/leave", `Quick, test_groups_join_leave);
    ("groups prune", `Quick, test_groups_prune);
    ("daemon_of_member", `Quick, test_daemon_of_member);
    ("groups reject malformed names", `Quick, test_groups_reject_malformed_names);
    qtest prop_groups_invariants;
    ("group multicast members only", `Quick, test_group_multicast_members_only);
    ("multi-group delivered once", `Quick, test_multi_group_delivered_once);
    ("group views consistent", `Quick, test_group_views_consistent);
    ("total order across daemons", `Quick, test_total_order_across_daemons);
    ("daemon crash prunes groups", `Quick, test_daemon_crash_prunes_groups);
    ("disconnect leaves groups", `Quick, test_disconnect_leaves_groups);
    ("disconnect ordered after in-flight", `Quick,
     test_disconnect_is_ordered_after_in_flight);
    ("double disconnect idempotent", `Quick, test_double_disconnect_idempotent);
    ("leave of non-member is a no-op", `Quick, test_leave_of_non_member_is_noop);
    ("batch envelope roundtrip", `Quick, test_batch_envelope_roundtrip);
    ("packing delivers all in order", `Quick, test_packing_delivers_all_in_order);
    ("packing respects threshold", `Quick, test_packing_respects_threshold);
    ("packing mixed services flush", `Quick, test_packing_mixed_services_flush);
    qtest prop_packing_fifo_per_sender;
    qtest prop_packing_batches_single_service;
    qtest prop_packing_respects_threshold;
    ("group state reconverges after merge", `Quick,
      test_group_state_reconverges_after_merge);
    ("slow receiver head-of-line isolation", `Quick,
      test_slow_receiver_isolation);
    ("slow receiver unmark + disconnect", `Quick,
      test_slow_receiver_unmark_and_disconnect);
    ("reconnect storm mid-view", `Quick, test_reconnect_storm_mid_view);
    ("reconnect inherits the table entry until the Leave", `Quick,
     test_reconnect_inherits_table_entry);
    ("leave and rejoin in the same instant", `Quick,
     test_leave_and_rejoin_same_instant);
    ("prune keeps local members", `Quick, test_prune_keeps_local_members);
    ("notifications and deliveries in name order", `Quick,
     test_notifications_and_deliveries_in_name_order);
    qtest prop_routing_matches_union_rule;
  ]
