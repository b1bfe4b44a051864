(* Simulator integration tests: determinism, delivery guarantees under
   simulated timing, loss recovery through the rtr mechanism, the
   accelerated protocol's observable effects, and fault hooks. *)

open Aring_wire
open Aring_ring
open Aring_sim

let check = Alcotest.check

let rid : Types.ring_id = { rep = 0; ring_seq = 1 }

(* A small simulated cluster of bare operational nodes. *)
type cluster = {
  sim : Netsim.t;
  nodes : Node.t array;
  delivered : (Types.pid * Types.seqno) list ref array;  (* newest first *)
}

let make_cluster ?(n = 4) ?(net = Profile.gigabit) ?(tier = Profile.library)
    ?(params = Params.default) ?(seed = 1L) () =
  let ring = Array.init n (fun i -> i) in
  let nodes =
    Array.init n (fun me -> Node.create ~params ~ring_id:rid ~ring ~me)
  in
  let sim =
    Netsim.create ~net ~tiers:(Array.make n tier)
      ~participants:(Array.map Node.participant nodes)
      ~seed ()
  in
  let delivered = Array.init n (fun _ -> ref []) in
  Netsim.on_deliver sim (fun ~at ~now:_ (d : Message.data) ->
      delivered.(at) := (d.pid, d.seq) :: !(delivered.(at)));
  { sim; nodes; delivered }

let delivery_list c i = List.rev !(c.delivered.(i))

let submit_burst ?(spacing_ns = 100_000) c ~per_node ~payload_len =
  let n = Array.length c.nodes in
  for node = 0 to n - 1 do
    for i = 0 to per_node - 1 do
      Netsim.submit_at c.sim ~at:(i * spacing_ns) ~node Types.Agreed
        (Bytes.create payload_len)
    done
  done

let ms n = n * 1_000_000

let test_idle_token_circulates () =
  let c = make_cluster () in
  Netsim.run_until c.sim (ms 50);
  let rounds = (Engine.stats (Node.engine c.nodes.(0))).rounds in
  check Alcotest.bool "token circulated many times" true (rounds > 100)

let test_burst_fully_delivered () =
  let c = make_cluster () in
  submit_burst c ~per_node:100 ~payload_len:200;
  Netsim.run_until c.sim (ms 100);
  for i = 0 to 3 do
    check Alcotest.int
      (Printf.sprintf "node %d delivered all" i)
      400
      (List.length (delivery_list c i))
  done;
  (* Identical total order everywhere. *)
  let reference = delivery_list c 0 in
  for i = 1 to 3 do
    check Alcotest.bool
      (Printf.sprintf "node %d same order" i)
      true
      (delivery_list c i = reference)
  done

let test_deterministic_replay () =
  let run () =
    let c = make_cluster ~seed:99L () in
    submit_burst c ~per_node:50 ~payload_len:500;
    Netsim.run_until c.sim (ms 60);
    (delivery_list c 0, (Netsim.stats c.sim).packets_sent, Netsim.now c.sim)
  in
  let a = run () and b = run () in
  check Alcotest.bool "identical deliveries" true (a = b)

let test_no_spurious_retransmissions () =
  (* The accelerated token runs ahead of post-token data, yet the rtr cap
     (previous round's seq) must prevent any retransmission request on a
     lossless network. *)
  let c = make_cluster ~n:8 ~params:Params.default () in
  submit_burst c ~per_node:200 ~payload_len:1342;
  Netsim.run_until c.sim (ms 200);
  Array.iteri
    (fun i node ->
      let s = Engine.stats (Node.engine node) in
      check Alcotest.int (Printf.sprintf "node %d no rtr requests" i) 0
        s.rtr_requested;
      check Alcotest.int (Printf.sprintf "node %d no retransmissions" i) 0
        s.retrans_sent)
    c.nodes

let test_loss_recovered_by_rtr () =
  let net = Profile.with_loss Profile.gigabit 0.02 in
  let c = make_cluster ~n:4 ~net () in
  submit_burst c ~per_node:100 ~payload_len:800;
  Netsim.run_until c.sim (ms 300);
  for i = 0 to 3 do
    check Alcotest.int
      (Printf.sprintf "node %d recovered all" i)
      400
      (List.length (delivery_list c i))
  done;
  let total_retrans =
    Array.fold_left
      (fun acc node -> acc + (Engine.stats (Node.engine node)).retrans_sent)
      0 c.nodes
  in
  check Alcotest.bool "retransmissions happened" true (total_retrans > 0);
  check Alcotest.bool "random losses happened" true
    ((Netsim.stats c.sim).random_losses > 0)

let test_accelerated_rotates_faster () =
  let rounds_of params =
    let c = make_cluster ~n:8 ~tier:Profile.spread ~params () in
    submit_burst c ~per_node:100 ~payload_len:1342;
    Netsim.run_until c.sim (ms 100);
    (Engine.stats (Node.engine c.nodes.(0))).rounds
  in
  let accel = rounds_of Params.default in
  let orig = rounds_of Params.original in
  check Alcotest.bool
    (Printf.sprintf "accelerated (%d) rotates faster than original (%d)" accel
       orig)
    true (accel > orig)

let test_crash_triggers_token_loss () =
  let c = make_cluster ~n:4 () in
  (* A bare node's loss is its loss timer's flight record. *)
  let token_losses = ref 0 in
  let count ~ns:_ ~node:_ ~code ~a:_ ~b:_ ~c:_ ~d:_ ~e:_ ~f:_ ~g:_ ~h:_ ~i:_ =
    if code = Aring_obs.Flight.ev_token_lost then incr token_losses
  in
  Netsim.call_at c.sim ~at:(ms 10) (fun () -> Netsim.crash c.sim 2);
  Aring_obs.Flight.subscribe count;
  Fun.protect
    ~finally:(fun () -> Aring_obs.Flight.unsubscribe count)
    (fun () -> Netsim.run_until c.sim (ms 300));
  check Alcotest.bool "token loss detected after crash" true
    (!token_losses > 0);
  check Alcotest.bool "crashed node is dead" false (Netsim.is_alive c.sim 2)

let test_partition_blocks_progress () =
  (* Cutting node 3 off entirely stalls it but the drop predicate is
     honoured (partition_drops counted). *)
  let c = make_cluster ~n:4 () in
  Netsim.set_drop c.sim (fun ~src ~dst _ -> src = 3 || dst = 3);
  submit_burst c ~per_node:20 ~payload_len:100;
  Netsim.run_until c.sim (ms 100);
  check Alcotest.bool "partition dropped packets" true
    ((Netsim.stats c.sim).partition_drops > 0);
  check Alcotest.int "isolated node delivered nothing" 0
    (List.length (delivery_list c 3))

let test_drop_until_auto_heals () =
  (* A timed partition window: node 3 is cut off from ms 5 to ms 20, then
     the saved predicate is restored automatically and retransmissions
     catch everyone up. *)
  let c = make_cluster ~n:4 () in
  Netsim.call_at c.sim ~at:(ms 5) (fun () ->
      Netsim.set_drop_until c.sim ~until:(ms 20) (fun ~src ~dst _ ->
          src = 3 || dst = 3));
  submit_burst c ~per_node:20 ~payload_len:100;
  Netsim.run_until c.sim (ms 400);
  check Alcotest.bool "packets dropped during the window" true
    ((Netsim.stats c.sim).partition_drops > 0);
  for i = 0 to 3 do
    check Alcotest.int
      (Printf.sprintf "node %d recovered after auto-heal" i)
      80
      (List.length (delivery_list c i))
  done

let test_tiny_switch_buffer_drops_and_recovers () =
  let net = { Profile.gigabit with switch_port_buffer = 16 * 1024 } in
  let c = make_cluster ~n:8 ~net () in
  (* An instantaneous burst: every pending queue fills at t=0, so adjacent
     senders' post-token overlap floods the switch ports. *)
  submit_burst ~spacing_ns:0 c ~per_node:150 ~payload_len:1342;
  Netsim.run_until c.sim (ms 2000);
  check Alcotest.bool "switch dropped packets" true
    ((Netsim.stats c.sim).switch_drops > 0);
  (* Retransmissions heal the overflow loss. *)
  for i = 0 to 7 do
    check Alcotest.int
      (Printf.sprintf "node %d recovered" i)
      1200
      (List.length (delivery_list c i))
  done



(* -------------------------------------------------------------------- *)
(* Causality: the total order respects potential causality. If a node
   submits m' after having delivered m, then every node delivers m before
   m' (Agreed delivery, Section II). *)

let test_total_order_respects_causality () =
  let c = make_cluster ~n:4 () in
  (* Node 1 reacts to each delivery of node 0's messages by submitting a
     reply; the reply must always follow the original everywhere. *)
  let sim = c.sim in
  let replied = Hashtbl.create 16 in
  Netsim.on_deliver sim (fun ~at ~now:_ (d : Message.data) ->
      c.delivered.(at) := (d.pid, d.seq) :: !(c.delivered.(at));
      if at = 1 && d.pid = 0 && not (Hashtbl.mem replied d.seq) then begin
        Hashtbl.replace replied d.seq ();
        Netsim.submit_now sim ~node:1 Types.Agreed
          (Bytes.of_string (Printf.sprintf "reply-%d" d.seq))
      end);
  for k = 0 to 19 do
    Netsim.submit_at c.sim ~at:(k * 500_000) ~node:0 Types.Agreed
      (Bytes.create 64)
  done;
  Netsim.run_until c.sim (ms 100);
  (* Check at every node: each reply (from node 1) appears after the
     corresponding original (by its position in the stream). *)
  for node = 0 to 3 do
    let stream = delivery_list c node in
    let position (pid, seq) =
      let rec find i = function
        | [] -> None
        | x :: rest -> if x = (pid, seq) then Some i else find (i + 1) rest
      in
      find 0 stream
    in
    (* Node 0 sent 20 originals; node 1 replied to each. Replies carry
       increasing seqs; map i-th reply to i-th original by send order. *)
    let originals = List.filter (fun (pid, _) -> pid = 0) stream in
    let replies = List.filter (fun (pid, _) -> pid = 1) stream in
    check Alcotest.int "all originals" 20 (List.length originals);
    check Alcotest.int "all replies" 20 (List.length replies);
    List.iteri
      (fun i orig ->
        let reply = List.nth replies i in
        match (position orig, position reply) with
        | Some po, Some pr ->
            if po >= pr then
              Alcotest.failf "node %d: reply %d delivered before original" node i
        | _ -> Alcotest.fail "missing message")
      originals
  done

(* -------------------------------------------------------------------- *)
(* Profile cost model                                                    *)

let test_profile_tx_ns () =
  (* 1500 bytes at 1 Gbps = 12 us; at 10 Gbps = 1.2 us. *)
  check Alcotest.int "1G serialization" 12_000 (Profile.tx_ns Profile.gigabit 1500);
  check Alcotest.int "10G serialization" 1_200
    (Profile.tx_ns Profile.ten_gigabit 1500)

let test_profile_frag_cost () =
  let tier = Profile.library in
  let one = Profile.data_proc_cost tier ~mtu:1500 ~wire_bytes:1400 in
  let six = Profile.data_proc_cost tier ~mtu:1500 ~wire_bytes:8900 in
  check Alcotest.int "single fragment" (tier.Profile.data_proc_ns + tier.Profile.frag_ns) one;
  check Alcotest.int "six fragments"
    (tier.Profile.data_proc_ns + (6 * tier.Profile.frag_ns))
    six;
  (* Jumbo frames collapse the same datagram to one fragment. *)
  let jumbo = Profile.data_proc_cost tier ~mtu:9000 ~wire_bytes:8900 in
  check Alcotest.int "jumbo single fragment" one jumbo

let test_profile_modifiers () =
  let lossy = Profile.with_loss Profile.gigabit 0.25 in
  check (Alcotest.float 1e-9) "loss set" 0.25 lossy.Profile.loss_prob;
  let jumbo = Profile.with_jumbo_frames Profile.ten_gigabit in
  check Alcotest.int "jumbo mtu" 9000 jumbo.Profile.mtu;
  check Alcotest.string "jumbo name" "10GbE+jumbo" jumbo.Profile.net_name;
  check Alcotest.int "original untouched" 1500 Profile.ten_gigabit.Profile.mtu

let test_spread_fits_one_mtu () =
  (* Spread's 1350-byte message plus its headers must fill exactly one
     standard MTU (the paper's design point). *)
  let wire =
    Aring_wire.Message.data_wire_size ~payload_len:1350
    + Profile.spread.Profile.extra_data_header
  in
  check Alcotest.int "exactly one MTU" 1500 wire

(* -------------------------------------------------------------------- *)
(* Scenario harness                                                      *)

let test_scenario_throughput_sane () =
  let open Aring_harness in
  let spec =
    {
      Scenario.default_spec with
      offered_mbps = 150.0;
      warmup_ns = ms 50;
      measure_ns = ms 150;
    }
  in
  let r = Scenario.run spec in
  check Alcotest.bool "delivered within 3% of offered" true
    (abs_float (r.delivered_mbps -. 150.0) < 4.5);
  check Alcotest.bool "latency positive" true
    (Aring_util.Stats.mean r.latency_us > 0.0);
  check Alcotest.bool "collected samples" true (r.deliveries > 1000)

let test_scenario_accel_beats_original_under_load () =
  let open Aring_harness in
  let run params =
    Scenario.run
      {
        Scenario.default_spec with
        tier = Profile.spread;
        params;
        offered_mbps = 700.0;
        warmup_ns = ms 50;
        measure_ns = ms 200;
      }
  in
  let accel = run Params.default in
  let orig = run Params.original in
  check Alcotest.bool "both sustain 700 Mbps" true
    (accel.delivered_mbps > 680.0 && orig.delivered_mbps > 680.0);
  check Alcotest.bool
    (Printf.sprintf "accel latency (%.0f) < original (%.0f)"
       (Aring_util.Stats.mean accel.latency_us)
       (Aring_util.Stats.mean orig.latency_us))
    true
    (Aring_util.Stats.mean accel.latency_us
    < Aring_util.Stats.mean orig.latency_us)

(* -------------------------------------------------------------------- *)
(* Latency tiers                                                         *)

let test_asym_explicit_defaults_identical () =
  (* Latency classes at zero extra latency must reproduce the untouched
     schedule exactly — the regression wall for the uniform fabric. *)
  let run configure =
    let c = make_cluster ~n:4 ~seed:42L () in
    configure c.sim;
    submit_burst c ~per_node:40 ~payload_len:700;
    Netsim.run_until c.sim (ms 80);
    ( List.init 4 (delivery_list c),
      (Netsim.stats c.sim).packets_sent,
      Netsim.now c.sim )
  in
  let a = run (fun _ -> ()) in
  let b =
    run (fun sim ->
        Netsim.set_latency_classes sim ~classes:[| 0; 1; 0; 1 |]
          ~matrix:[| [| 0; 0 |]; [| 0; 0 |] |])
  in
  check Alcotest.bool "explicit defaults are byte-identical" true (a = b)

let test_latency_classes_honored () =
  (* Two sites, 500 us of extra one-way WAN latency between them. A
     cross-site packet must pay at least the extra latency; and the
     total order must stay identical at every node. *)
  let wan = 500_000 in
  let run extra =
    let c = make_cluster ~n:4 ~seed:9L () in
    if extra > 0 then
      Netsim.set_latency_classes c.sim ~classes:[| 0; 0; 1; 1 |]
        ~matrix:[| [| 0; extra |]; [| extra; 0 |] |];
    let first = Array.make 4 max_int in
    Netsim.on_deliver c.sim (fun ~at ~now (_ : Message.data) ->
        if now < first.(at) then first.(at) <- now);
    Netsim.submit_at c.sim ~at:(ms 2) ~node:0 Types.Agreed (Bytes.create 600);
    Netsim.run_until c.sim (ms 200);
    first
  in
  let lan = run 0 and geo = run wan in
  check Alcotest.bool "cross-site delivery pays the WAN latency" true
    (geo.(3) >= lan.(3) + wan);
  check Alcotest.bool "lan run delivered" true (lan.(3) < max_int);
  check Alcotest.bool "geo run delivered" true (geo.(3) < max_int)

let test_asym_deterministic_replay () =
  (* Determinism re-pinned under asymmetric latency classes. *)
  let run () =
    let c = make_cluster ~n:4 ~seed:77L () in
    Netsim.set_latency_classes c.sim ~classes:[| 0; 1; 1; 0 |]
      ~matrix:[| [| 0; 90_000 |]; [| 110_000; 0 |] |];
    submit_burst c ~per_node:40 ~payload_len:900;
    Netsim.run_until c.sim (ms 150);
    ( List.init 4 (delivery_list c),
      (Netsim.stats c.sim).packets_sent,
      Netsim.now c.sim )
  in
  let a = run () and b = run () in
  check Alcotest.bool "asymmetric schedule replays identically" true (a = b)

let test_asym_validation () =
  let c = make_cluster ~n:4 () in
  Alcotest.check_raises "classes must cover nodes"
    (Invalid_argument "Netsim.set_latency_classes: classes must cover every node")
    (fun () ->
      Netsim.set_latency_classes c.sim ~classes:[| 0 |] ~matrix:[| [| 0 |] |]);
  Alcotest.check_raises "class out of range"
    (Invalid_argument "Netsim.set_latency_classes: class out of range")
    (fun () ->
      Netsim.set_latency_classes c.sim ~classes:[| 0; 0; 0; 7 |]
        ~matrix:[| [| 0 |] |]);
  Alcotest.check_raises "matrix must be square"
    (Invalid_argument "Netsim.set_latency_classes: matrix must be square")
    (fun () ->
      Netsim.set_latency_classes c.sim ~classes:[| 0; 0; 0; 0 |]
        ~matrix:[| [| 0; 1 |] |])

(* Key "a" armed at 100 and again at 200 ns, "b" at 150: one "a" fires,
   at the later deadline, and the superseded one is counted. *)
let test_rearm_supersedes () =
  let sim = ref None in
  let p, fires =
    Timer_probe.create
      ~now:(fun () -> Netsim.now (Option.get !sim))
      [ Arm ("a", 100); Arm ("b", 150); Arm ("a", 200) ]
  in
  let s =
    Netsim.create ~net:Profile.gigabit ~tiers:[| Profile.library |]
      ~participants:[| p |] ()
  in
  sim := Some s;
  Netsim.run_until s 1_000;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "one a at the later deadline, one b" [ ("b", 150); ("a", 200) ]
    (fires ());
  let reg = Aring_obs.Metrics.create () in
  Netsim.record_metrics s reg;
  let count = Aring_obs.Metrics.counter_value reg in
  check Alcotest.int "timers fired" 2 (count "netsim.timers_fired");
  check Alcotest.int "timers superseded" 1 (count "netsim.timers_superseded")

(* One key re-armed 10,000 times is one queued event, re-keyed in place:
   it fires once, at the last deadline, and the queue never holds more
   than the start call and that timer. *)
let test_rearm_keeps_one_event () =
  let sim = ref None in
  let p, fires =
    Timer_probe.create
      ~now:(fun () -> Netsim.now (Option.get !sim))
      (List.init 10_000 (fun i -> Timer_probe.Arm ("a", 100 + i)))
  in
  let s =
    Netsim.create ~net:Profile.gigabit ~tiers:[| Profile.library |]
      ~participants:[| p |] ()
  in
  sim := Some s;
  Netsim.run_until s 1_000_000;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "one a, at the last deadline" [ ("a", 10_099) ] (fires ());
  let reg = Aring_obs.Metrics.create () in
  Netsim.record_metrics s reg;
  let count = Aring_obs.Metrics.counter_value reg in
  check Alcotest.int "timers fired" 1 (count "netsim.timers_fired");
  check Alcotest.int "timers superseded" 9_999 (count "netsim.timers_superseded");
  check Alcotest.int "events dispatched: the start call and one timer" 2
    (count "netsim.events");
  check Alcotest.bool "pending peak at most 2" true
    (count "netsim.events_pending_peak" <= 2)

(* "a" is armed, then disarmed: it never fires, and its event is not
   dispatched. Disarming "c", never armed, does nothing. "d" is armed,
   disarmed and armed again: it fires once, at the second deadline. *)
let test_disarm () =
  let sim = ref None in
  let p, fires =
    Timer_probe.create
      ~now:(fun () -> Netsim.now (Option.get !sim))
      [
        Arm ("a", 100);
        Arm ("b", 150);
        Disarm "a";
        Disarm "c";
        Arm ("d", 120);
        Disarm "d";
        Arm ("d", 300);
      ]
  in
  let s =
    Netsim.create ~net:Profile.gigabit ~tiers:[| Profile.library |]
      ~participants:[| p |] ()
  in
  sim := Some s;
  Netsim.run_until s 1_000;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "one b, then one d at its second deadline" [ ("b", 150); ("d", 300) ]
    (fires ());
  let reg = Aring_obs.Metrics.create () in
  Netsim.record_metrics s reg;
  let count = Aring_obs.Metrics.counter_value reg in
  check Alcotest.int "timers fired" 2 (count "netsim.timers_fired");
  check Alcotest.int "nothing superseded" 0 (count "netsim.timers_superseded");
  check Alcotest.int "events dispatched: the start call and two timers" 3
    (count "netsim.events")

type Participant.timer += Fire of int

(* Node 0 of the port tests: [start] arms [Fire 0] at [first], and firing
   [Fire k] performs [script k]. *)
let scripted ~first script : Participant.t =
  {
    pid = 0;
    submit = (fun _ _ -> ());
    receive = (fun _ -> `Queued);
    has_work = (fun () -> false);
    take_next = (fun () -> None);
    process = (fun _ -> []);
    fire_timer = (function Fire k -> script k | _ -> []);
    start = (fun () -> [ Participant.Arm_timer (Fire 0, first) ]);
  }

let probe_msg =
  Message.Join { j_pid = 0; proc_set = []; fail_set = []; join_seq = 0 }

(* Switch drops at node 1's port when node 0 runs [script], on a gigabit
   net whose port buffer holds [fit] probe packets. *)
let port_drops ~fit script =
  let size = Message.wire_size probe_msg in
  let net = { Profile.gigabit with switch_port_buffer = fit * size } in
  let idle, _ = Timer_probe.create ~now:(fun () -> 0) [] in
  let s =
    Netsim.create ~net ~tiers:(Array.make 2 Profile.library)
      ~participants:[| scripted ~first:1_000 script; idle |] ()
  in
  Netsim.run_until s 1_000_000;
  (Netsim.stats s).switch_drops

(* Port tie rule. [Fire 0] (at 1,000 ns, its actions from 1,500 ns) sends
   packet A, which finishes on node 1's port at [d]: one send op, then
   one serialization on the NIC and one on the port. [Fire 1] fires at
   exactly [d] and sends packet B into the one-packet buffer. A's bytes
   are released only if A's drain entry was stamped before [Fire 1] was
   armed, as its drain event would then have run first. *)
let test_port_tie_rule () =
  let size = Message.wire_size probe_msg in
  let tx = Profile.tx_ns Profile.gigabit size in
  let send_op = Profile.library.Profile.send_op_ns in
  let send_b = function
    | 1 -> [ Participant.Unicast (1, probe_msg) ]
    | _ -> []
  in
  let drain_stamped_first = function
    | 0 ->
        [
          Participant.Unicast (1, probe_msg);
          Participant.Arm_timer (Fire 1, 2 * tx);
        ]
    | k -> send_b k
  in
  let timer_armed_first = function
    | 0 ->
        [
          Participant.Arm_timer (Fire 1, send_op + (2 * tx));
          Participant.Unicast (1, probe_msg);
        ]
    | k -> send_b k
  in
  check Alcotest.int "A released before B" 0
    (port_drops ~fit:1 drain_stamped_first);
  check Alcotest.int "A still queued for B" 1
    (port_drops ~fit:1 timer_armed_first);
  (* A burst of 10 from one event into a 4-packet buffer: no packet
     finishes before the event ends, so the last 6 drop. [Fire 1]'s
     send, 100 us later, finds the port drained and drops nothing. *)
  let burst = function
    | 0 ->
        List.init 10 (fun _ -> Participant.Unicast (1, probe_msg))
        @ [ Participant.Arm_timer (Fire 1, 100_000) ]
    | k -> send_b k
  in
  check Alcotest.int "burst drops past the buffer" 6 (port_drops ~fit:4 burst)

(* A step schedule splits the measurement window into phases, each at
   its own offered rate, whose deliveries partition the run's total. *)
let test_step_load_produces_phases () =
  let spec =
    {
      Aring_harness.Scenario.default_spec with
      label = "step-phases";
      n_nodes = 4;
      offered_mbps = 100.0;
      warmup_ns = 20_000_000;
      measure_ns = 60_000_000;
      load =
        Aring_harness.Scenario.step_load ~low:100.0 ~high:300.0
          ~at_ns:40_000_000 ~until_ns:60_000_000;
    }
  in
  let r = Aring_harness.Scenario.run spec in
  let phases = r.Aring_harness.Scenario.phases in
  check Alcotest.int "three phases inside the window" 3 (List.length phases);
  (match phases with
  | [ a; b; c ] ->
      check (Alcotest.float 0.01) "phase 1 offered" 100.0
        a.Aring_harness.Scenario.p_offered_mbps;
      check (Alcotest.float 0.01) "phase 2 offered" 300.0
        b.Aring_harness.Scenario.p_offered_mbps;
      check (Alcotest.float 0.01) "phase 3 offered" 100.0
        c.Aring_harness.Scenario.p_offered_mbps;
      List.iter
        (fun (p : Aring_harness.Scenario.phase) ->
          check Alcotest.bool "each phase delivered something" true
            (p.p_deliveries > 0))
        phases
  | _ -> Alcotest.fail "wrong phase count");
  check Alcotest.int "phase deliveries partition the total"
    r.Aring_harness.Scenario.deliveries
    (List.fold_left
       (fun acc (p : Aring_harness.Scenario.phase) -> acc + p.p_deliveries)
       0 phases)

let suite =
  [
    ("idle token circulates", `Quick, test_idle_token_circulates);
    ("burst fully delivered in order", `Quick, test_burst_fully_delivered);
    ("deterministic replay", `Quick, test_deterministic_replay);
    ("no spurious retransmissions", `Slow, test_no_spurious_retransmissions);
    ("loss recovered by rtr", `Slow, test_loss_recovered_by_rtr);
    ("accelerated rotates faster", `Slow, test_accelerated_rotates_faster);
    ("crash triggers token loss", `Quick, test_crash_triggers_token_loss);
    ("partition blocks isolated node", `Quick, test_partition_blocks_progress);
    ("set_drop_until auto-heals", `Quick, test_drop_until_auto_heals);
    ("switch overflow drops and recovers", `Slow,
      test_tiny_switch_buffer_drops_and_recovers);
    ("total order respects causality", `Quick, test_total_order_respects_causality);
    ("profile tx_ns", `Quick, test_profile_tx_ns);
    ("profile fragment cost", `Quick, test_profile_frag_cost);
    ("profile modifiers", `Quick, test_profile_modifiers);
    ("spread message fits one MTU", `Quick, test_spread_fits_one_mtu);
    ("scenario throughput sane", `Slow, test_scenario_throughput_sane);
    ("scenario accel beats original", `Slow,
      test_scenario_accel_beats_original_under_load);
    ("asym explicit defaults byte-identical", `Quick,
      test_asym_explicit_defaults_identical);
    ("latency classes honored", `Quick, test_latency_classes_honored);
    ("asym deterministic replay", `Quick, test_asym_deterministic_replay);
    ("asym validation", `Quick, test_asym_validation);
    ("re-armed timer supersedes", `Quick, test_rearm_supersedes);
    ("disarmed timer never fires", `Quick, test_disarm);
    ("re-armed timer keeps one event", `Quick, test_rearm_keeps_one_event);
    ("port drain tie rule", `Quick, test_port_tie_rule);
    ("step load produces phases", `Quick, test_step_load_produces_phases);
  ]
