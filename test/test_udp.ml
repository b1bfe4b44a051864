(* Real-socket integration test: a 3-member ring over UDP on loopback,
   each member driven by its own thread running the select loop. Verifies
   that the full stack (wire codec, engine, membership wrapper, priority
   policy) works outside the simulator. *)

open Aring_wire
open Aring_ring
open Aring_transport

let check = Alcotest.check

let base_port = 21740

let peers n =
  List.init n (fun pid ->
      {
        Udp_runtime.pid;
        host = "127.0.0.1";
        data_port = base_port + (2 * pid);
        token_port = base_port + (2 * pid) + 1;
      })

let test_three_node_udp_ring () =
  let n = 3 in
  let ring = Array.init n (fun i -> i) in
  let mutex = Mutex.create () in
  let delivered = Array.init n (fun _ -> ref []) in
  let members =
    Array.init n (fun me -> Member.create ~params:Params.default ~me ~initial_ring:ring ())
  in
  let runtimes =
    Array.init n (fun me ->
        Udp_runtime.create ~me ~peers:(peers n)
          ~participant:(Member.participant members.(me))
          ~on_deliver:(fun (d : Message.data) ->
            Mutex.lock mutex;
            delivered.(me) := (d.pid, d.seq, Bytes.to_string d.payload) :: !(delivered.(me));
            Mutex.unlock mutex)
          ())
  in
  let threads =
    Array.map
      (fun rt -> Thread.create (fun () -> Udp_runtime.run rt ~duration_s:2.0) ())
      runtimes
  in
  (* Give the ring a moment to start, then submit from every member. *)
  Thread.delay 0.3;
  for k = 1 to 30 do
    Member.submit members.(k mod n) Types.Agreed
      (Bytes.of_string (Printf.sprintf "udp-%d" k));
    Thread.delay 0.01
  done;
  Array.iter Thread.join threads;
  Array.iter Udp_runtime.close runtimes;
  let streams =
    Array.to_list (Array.map (fun r -> List.rev !r) delivered)
  in
  (match streams with
  | first :: rest ->
      check Alcotest.int "all messages delivered" 30 (List.length first);
      List.iteri
        (fun i s ->
          check Alcotest.bool
            (Printf.sprintf "node %d identical stream" (i + 1))
            true (s = first))
        rest
  | [] -> assert false);
  Array.iter
    (fun rt ->
      check Alcotest.int "no decode errors" 0 (Udp_runtime.decode_errors rt))
    runtimes

let test_daemon_stack_over_udp () =
  (* The full production stack — daemon (groups) on membership on the
     ordering engine — over real UDP sockets. *)
  let n = 2 in
  let base = base_port + 100 in
  let peers =
    List.init n (fun pid ->
        {
          Udp_runtime.pid;
          host = "127.0.0.1";
          data_port = base + (2 * pid);
          token_port = base + (2 * pid) + 1;
        })
  in
  let ring = Array.init n (fun i -> i) in
  let members =
    Array.init n (fun me -> Aring_ring.Member.create ~params:Params.default ~me ~initial_ring:ring ())
  in
  let daemons =
    Array.map (fun m -> Aring_daemon.Daemon.create ~member:m ()) members
  in
  let mutex = Mutex.create () in
  let received = ref [] in
  let cb tag =
    {
      Aring_daemon.Daemon.on_message =
        (fun ~sender ~groups:_ _service payload ->
          Mutex.lock mutex;
          received :=
            (tag, sender, Aring_wire.Codec.view_to_string payload) :: !received;
          Mutex.unlock mutex);
      on_group_view = (fun ~group:_ ~members:_ -> ());
    }
  in
  let runtimes =
    Array.init n (fun me ->
        Udp_runtime.create ~me ~peers
          ~participant:(Aring_daemon.Daemon.participant daemons.(me))
          ())
  in
  let threads =
    Array.map
      (fun rt -> Thread.create (fun () -> Udp_runtime.run rt ~duration_s:1.5) ())
      runtimes
  in
  Thread.delay 0.2;
  let s0 = Aring_daemon.Daemon.connect daemons.(0) ~name:"a" (cb "a") in
  let s1 = Aring_daemon.Daemon.connect daemons.(1) ~name:"b" (cb "b") in
  Aring_daemon.Daemon.join daemons.(0) s0 "room";
  Aring_daemon.Daemon.join daemons.(1) s1 "room";
  Thread.delay 0.3;
  Aring_daemon.Daemon.multicast daemons.(0) s0 ~groups:[ "room" ]
    (Bytes.of_string "over the wire");
  Array.iter Thread.join threads;
  Array.iter Udp_runtime.close runtimes;
  let got tag =
    List.exists (fun (t, _, p) -> t = tag && p = "over the wire") !received
  in
  check Alcotest.bool "a received own message" true (got "a");
  check Alcotest.bool "b received across daemons" true (got "b");
  check Alcotest.string "consistent group view"
    (String.concat "," (Aring_daemon.Daemon.group_members daemons.(0) "room"))
    (String.concat "," (Aring_daemon.Daemon.group_members daemons.(1) "room"))

(* Key "a" armed at 20 ms and again at 60 ms, "b" at 40 ms: the loop
   fires one "b", then one "a" no earlier than 60 ms after the run
   began. *)
let test_rearm_supersedes () =
  let ms n = n * 1_000_000 in
  let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9) in
  let p, fires =
    Timer_probe.create ~now:now_ns
      [ Arm ("a", ms 20); Arm ("b", ms 40); Arm ("a", ms 60) ]
  in
  let base = base_port + 200 in
  let rt =
    Udp_runtime.create ~me:0
      ~peers:
        [ { Udp_runtime.pid = 0; host = "127.0.0.1"; data_port = base;
            token_port = base + 1 } ]
      ~participant:p ()
  in
  let t0 = now_ns () in
  Udp_runtime.run rt ~duration_s:0.15;
  Udp_runtime.close rt;
  let fires = fires () in
  check (Alcotest.list Alcotest.string) "one b, then one a" [ "b"; "a" ]
    (List.map fst fires);
  check Alcotest.bool "a fires at the later deadline" true
    (List.assoc "a" fires - t0 >= ms 60)

(* "a" is armed, then disarmed: it never fires. Disarming "c", never
   armed, does nothing. "d" is armed, disarmed and armed again: it
   fires once, no earlier than its second deadline. *)
let test_disarm () =
  let ms n = n * 1_000_000 in
  let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9) in
  let p, fires =
    Timer_probe.create ~now:now_ns
      [
        Arm ("a", ms 20);
        Arm ("b", ms 40);
        Disarm "a";
        Disarm "c";
        Arm ("d", ms 30);
        Disarm "d";
        Arm ("d", ms 60);
      ]
  in
  let base = base_port + 210 in
  let rt =
    Udp_runtime.create ~me:0
      ~peers:
        [ { Udp_runtime.pid = 0; host = "127.0.0.1"; data_port = base;
            token_port = base + 1 } ]
      ~participant:p ()
  in
  let t0 = now_ns () in
  Udp_runtime.run rt ~duration_s:0.15;
  Udp_runtime.close rt;
  let fires = fires () in
  check (Alcotest.list Alcotest.string) "one b, then one d" [ "b"; "d" ]
    (List.map fst fires);
  check Alcotest.bool "d fires at its second deadline" true
    (List.assoc "d" fires - t0 >= ms 60)

(* A KV put issued before any runtime's first [run] waits in its member
   until [start] installs the pre-agreed ring, which sequences it like
   every submission made while no ring is installed: every replica
   applies it. The nodes are stepped round-robin from this thread. *)
let test_put_before_first_run () =
  let n = 3 in
  let base = base_port + 300 in
  let peers =
    List.init n (fun pid ->
        {
          Udp_runtime.pid;
          host = "127.0.0.1";
          data_port = base + (2 * pid);
          token_port = base + (2 * pid) + 1;
        })
  in
  let ring = Array.init n Fun.id in
  let daemons =
    Array.init n (fun me ->
        Aring_daemon.Daemon.create
          ~member:(Member.create ~params:Params.default ~me ~initial_ring:ring ())
          ())
  in
  let kvs =
    Array.map (fun daemon -> Aring_app.Kv.create ~cluster_size:n ~daemon ()) daemons
  in
  let runtimes =
    Array.mapi
      (fun me d ->
        Udp_runtime.create ~me ~peers
          ~participant:(Aring_daemon.Daemon.participant d) ())
      daemons
  in
  Aring_app.Kv.put kvs.(0) ~key:"early" ~value:"before run";
  let read kv = fst (Aring_app.Kv.read kv ~key:"early") in
  Fun.protect
    ~finally:(fun () -> Array.iter Udp_runtime.close runtimes)
    (fun () ->
      let give_up = Unix.gettimeofday () +. 3.0 in
      while
        (not (Array.for_all (fun kv -> read kv = Some "before run") kvs))
        && Unix.gettimeofday () < give_up
      do
        Array.iter (fun rt -> Udp_runtime.run rt ~duration_s:0.001) runtimes
      done);
  Array.iteri
    (fun i kv ->
      check (Alcotest.option Alcotest.string)
        (Printf.sprintf "replica %d applied the early put" i)
        (Some "before run") (read kv))
    kvs

let suite =
  [
    ("3-node UDP ring", `Slow, test_three_node_udp_ring);
    ("daemon stack over UDP", `Slow, test_daemon_stack_over_udp);
    ("re-armed timer supersedes", `Quick, test_rearm_supersedes);
    ("disarmed timer never fires", `Quick, test_disarm);
    ("put before the first run is applied", `Slow, test_put_before_first_run);
  ]
