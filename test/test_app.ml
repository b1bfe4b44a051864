(* Replicated-KV tests: op codec, basic replication and read semantics,
   view-synchronous state transfer (including transfer under churn:
   joiner crash, donor crash, re-partition mid-transfer), and the
   consistency oracle's detection power on synthetic observation
   streams. *)

open Aring_wire
open Aring_ring
open Aring_sim
open Aring_app

let check = Alcotest.check
let ms n = n * 1_000_000

(* -------------------------------------------------------------------- *)
(* Op codec                                                              *)

let sample_ops =
  [
    Op.Put { key = "k1"; value = "hello" };
    Op.Del { key = "gone" };
    Op.Cas { key = "c"; expect = None; value = "v0" };
    Op.Cas { key = "c"; expect = Some "v0"; value = "v1" };
    Op.Sync_read { reader = "#kv#2"; nonce = 41; key = "k1" };
    Op.Hello
      {
        view = { Types.rep = 1; ring_seq = 7 };
        daemon = 2;
        applied = 123;
        digest = 0xDEADBEEFL;
        synced = true;
      };
    Op.Chunk
      {
        view = { Types.rep = 0; ring_seq = 3 };
        donor = 0;
        index = 1;
        total = 4;
        applied = 99;
        entries = [ ("a", "1"); ("b", "2") ];
      };
    Op.Chunk
      {
        view = { Types.rep = 0; ring_seq = 1 };
        donor = 1;
        index = 0;
        total = 1;
        applied = 0;
        entries = [];
      };
  ]

let test_op_roundtrips () =
  List.iter
    (fun op ->
      let op' = Op.decode (Op.encode op) in
      check Alcotest.bool
        (Fmt.str "roundtrip %a" Op.pp op)
        true (op = op'))
    sample_ops

let prop_op_put_roundtrip =
  QCheck.Test.make ~name:"op put/cas roundtrips" ~count:200
    QCheck.(
      triple (string_of_size Gen.(0 -- 40))
        (option (string_of_size Gen.(0 -- 60)))
        (string_of_size Gen.(0 -- 200)))
    (fun (key, expect, value) ->
      let samples =
        [
          Op.Put { key; value };
          Op.Del { key };
          Op.Cas { key; expect; value };
        ]
      in
      List.for_all (fun op -> Op.decode (Op.encode op) = op) samples)

let test_op_rejects_garbage () =
  Alcotest.check_raises "bad tag" (Codec.Decode_error "Op: unknown tag 99")
    (fun () -> ignore (Op.decode (Bytes.make 1 'c')))

(* -------------------------------------------------------------------- *)
(* Simulated KV cluster                                                  *)

type kcluster = {
  sim : Netsim.t;
  kvs : Kv.t array;
  oracle : Oracle.t;
}

let make_kcluster ?(n = 3) ?(seed = 3L) ?(bug = fun _ -> Kv.Bug_none) () =
  let { Kv_scenario.sim; kvs; oracles; _ } =
    Kv_scenario.build_cluster
      ~kv_bug:(fun ~ring:_ ~node -> Some (bug node))
      ~rings:1 ~n ~net:Profile.gigabit ~params:Params.snappy ~seed ()
  in
  { sim; kvs; oracle = oracles.(0) }

let assert_oracle_clean c =
  if Oracle.violation_count c.oracle > 0 then
    Alcotest.fail (Fmt.str "oracle: %a" Oracle.pp c.oracle)

let assert_converged ?(msg = "converged") c alive =
  List.iter
    (fun i ->
      check Alcotest.bool
        (Printf.sprintf "%s: node %d synced+settled" msg i)
        true
        (Kv.synced c.kvs.(i) && Kv.settled c.kvs.(i)))
    alive;
  match alive with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun i ->
          check Alcotest.int
            (Printf.sprintf "%s: node %d applied" msg i)
            (Kv.applied c.kvs.(first))
            (Kv.applied c.kvs.(i));
          check Alcotest.bool
            (Printf.sprintf "%s: node %d digest" msg i)
            true
            (Kv.digest c.kvs.(i) = Kv.digest c.kvs.(first)))
        rest;
      Oracle.check_convergence c.oracle (List.map (fun i -> c.kvs.(i)) alive);
      assert_oracle_clean c

let test_basic_replication () =
  let c = make_kcluster () in
  Netsim.run_until c.sim (ms 10);
  Kv.put c.kvs.(0) ~key:"a" ~value:"1";
  Kv.put c.kvs.(1) ~key:"b" ~value:"2";
  Kv.del c.kvs.(2) ~key:"missing";
  Netsim.run_until c.sim (ms 40);
  Kv.put c.kvs.(2) ~key:"a" ~value:"3";
  Netsim.run_until c.sim (ms 80);
  (* All four writes applied everywhere, in the same order. *)
  Array.iteri
    (fun i kv ->
      check Alcotest.int (Printf.sprintf "node %d applied" i) 4 (Kv.applied kv);
      let v, token = Kv.read kv ~key:"a" in
      check (Alcotest.option Alcotest.string)
        (Printf.sprintf "node %d reads a" i)
        (Some "3") v;
      check Alcotest.int (Printf.sprintf "node %d token" i) 4 token)
    c.kvs;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "entries" [ ("a", "3"); ("b", "2") ]
    (Kv.entries c.kvs.(0));
  assert_converged c [ 0; 1; 2 ]

let test_cas_semantics () =
  let c = make_kcluster () in
  Netsim.run_until c.sim (ms 10);
  Kv.cas c.kvs.(0) ~key:"x" ~expect:None ~value:"first";
  Netsim.run_until c.sim (ms 30);
  (* Two concurrent CAS against "first": delivered in some total order;
     exactly one succeeds at every replica. *)
  Kv.cas c.kvs.(1) ~key:"x" ~expect:(Some "first") ~value:"from1";
  Kv.cas c.kvs.(2) ~key:"x" ~expect:(Some "first") ~value:"from2";
  Netsim.run_until c.sim (ms 70);
  let v0, _ = Kv.read c.kvs.(0) ~key:"x" in
  check Alcotest.bool "one winner" true (v0 = Some "from1" || v0 = Some "from2");
  Array.iter
    (fun kv ->
      let v, _ = Kv.read kv ~key:"x" in
      check (Alcotest.option Alcotest.string) "same winner everywhere" v0 v;
      check Alcotest.int "one cas failure" 1 (Kv.stats kv).Kv.cas_failures)
    c.kvs;
  assert_converged c [ 0; 1; 2 ]

let test_sync_read () =
  let c = make_kcluster () in
  Netsim.run_until c.sim (ms 10);
  Kv.put c.kvs.(1) ~key:"k" ~value:"v1";
  (* Issued right after the put at the same replica: per-sender FIFO puts
     the Safe-ordered marker behind the put, so the answer must see it
     even though the local store hasn't applied it yet. *)
  let answer = ref None in
  Kv.sync_read c.kvs.(1) ~key:"k" ~on_result:(fun v ~token ->
      answer := Some (v, token));
  Netsim.run_until c.sim (ms 80);
  (match !answer with
  | None -> Alcotest.fail "sync read never answered"
  | Some (v, token) ->
      check (Alcotest.option Alcotest.string) "sync read value" (Some "v1") v;
      check Alcotest.bool "token covers the put" true (token >= 1));
  check Alcotest.int "no pending reads" 0 (Kv.pending_sync_reads c.kvs.(1));
  assert_converged c [ 0; 1; 2 ]

(* -------------------------------------------------------------------- *)
(* State transfer                                                        *)

(* Cut [island] away from the rest between the two times. *)
let partition sim n ~at ~heal island =
  let inside = Array.make n false in
  List.iter (fun i -> inside.(i) <- true) island;
  Netsim.set_drop sim (fun ~src ~dst _ ->
      let now = Netsim.now sim in
      now >= at && now < heal && inside.(src) <> inside.(dst))

(* Preload every replica and diverge the majority during a partition so
   the island member needs a snapshot at heal time. *)
let diverged_cluster ?(n = 4) ?(entries = 200) ~heal () =
  let c = make_kcluster ~n () in
  let preloaded =
    List.init entries (fun i -> (Printf.sprintf "p%04d" i, String.make 100 'x'))
  in
  Array.iter (fun kv -> Kv.preload kv preloaded) c.kvs;
  partition c.sim n ~at:(ms 5) ~heal [ n - 1 ];
  for i = 0 to 39 do
    Netsim.call_at c.sim
      ~at:(ms 15 + (i * 500_000))
      (fun () -> Kv.put c.kvs.(0) ~key:(Printf.sprintf "d%03d" i) ~value:"new")
  done;
  c

let test_state_transfer_on_heal () =
  let n = 4 in
  let c = diverged_cluster ~n ~heal:(ms 300) () in
  Netsim.run_until c.sim (ms 250);
  (* Mid-partition: the majority applied the burst (including writes
     queued while its 3-member view formed), the island is frozen in a
     minority view and saw none of them. *)
  check Alcotest.int "majority applied" 40 (Kv.applied c.kvs.(0));
  check Alcotest.int "island frozen" 0 (Kv.applied c.kvs.(n - 1));
  Netsim.run_until c.sim (ms 900);
  check Alcotest.bool "island installed a snapshot" true
    ((Kv.stats c.kvs.(n - 1)).Kv.installs >= 1);
  check Alcotest.int "island caught up" 40 (Kv.applied c.kvs.(n - 1));
  assert_converged c (List.init n Fun.id)

let test_minority_writes_rejected () =
  let n = 3 in
  let c = make_kcluster ~n () in
  partition c.sim n ~at:(ms 5) ~heal:(ms 400) [ 2 ];
  (* Wait until the island has settled into its singleton configuration,
     then write: delivered in a minority view and rejected
     deterministically. *)
  Netsim.run_until c.sim (ms 250);
  Kv.put c.kvs.(2) ~key:"lost" ~value:"minority";
  Netsim.run_until c.sim (ms 350);
  check Alcotest.bool "minority rejected the write" true
    ((Kv.stats c.kvs.(2)).Kv.rejected_writes >= 1);
  check Alcotest.int "minority did not apply" 0 (Kv.applied c.kvs.(2));
  Netsim.run_until c.sim (ms 900);
  let v, _ = Kv.read c.kvs.(2) ~key:"lost" in
  check (Alcotest.option Alcotest.string) "write stayed rejected" None v;
  assert_converged c [ 0; 1; 2 ]

(* Run in small steps until the island member enters a transfer, then
   act; the transfer stream is long enough (big preload) that the action
   lands mid-stream. *)
let until_in_transfer c ~node ~deadline =
  let t = ref 0 in
  while (not (Kv.in_transfer c.kvs.(node))) && !t < deadline do
    t := !t + 200_000;
    Netsim.run_until c.sim !t
  done;
  if not (Kv.in_transfer c.kvs.(node)) then
    Alcotest.fail "island never entered a transfer";
  !t

let test_joiner_crash_mid_transfer () =
  let n = 4 in
  let c = diverged_cluster ~n ~entries:2000 ~heal:(ms 120) () in
  let joiner = n - 1 in
  let _ = until_in_transfer c ~node:joiner ~deadline:(ms 500) in
  Netsim.crash c.sim joiner;
  Netsim.run_until c.sim (ms 900);
  (* Survivors shrug the dead receiver off and stay converged. *)
  assert_converged ~msg:"survivors" c [ 0; 1; 2 ]

let test_donor_crash_mid_transfer () =
  let n = 4 in
  let c = diverged_cluster ~n ~entries:2000 ~heal:(ms 120) () in
  let joiner = n - 1 in
  let _ = until_in_transfer c ~node:joiner ~deadline:(ms 500) in
  (* The donor is the lowest-pid synced member: node 0. Kill it with the
     chunk stream in flight; the next view aborts the transfer and
     re-elects a surviving donor. *)
  Netsim.crash c.sim 0;
  Netsim.run_until c.sim (ms 1_200);
  check Alcotest.bool "transfer was aborted and retried" true
    ((Kv.stats c.kvs.(joiner)).Kv.xfer_aborts >= 1);
  check Alcotest.bool "joiner still installed" true
    ((Kv.stats c.kvs.(joiner)).Kv.installs >= 1);
  assert_converged ~msg:"survivors" c [ 1; 2; joiner ]

let test_repartition_mid_transfer () =
  let n = 4 in
  let c = diverged_cluster ~n ~entries:2000 ~heal:(ms 120) () in
  let joiner = n - 1 in
  let t = until_in_transfer c ~node:joiner ~deadline:(ms 500) in
  (* Cut the receiver away again mid-stream, then heal for good. *)
  partition c.sim n ~at:t ~heal:(t + ms 80) [ joiner ];
  Netsim.run_until c.sim (ms 1_500);
  check Alcotest.bool "transfer was aborted" true
    ((Kv.stats c.kvs.(joiner)).Kv.xfer_aborts >= 1);
  check Alcotest.bool "joiner eventually installed" true
    ((Kv.stats c.kvs.(joiner)).Kv.installs >= 1);
  assert_converged c (List.init n Fun.id)

(* Writes still flowing when an island heals: every replica holds the
   ones delivered between the new view and its election back, then
   applies them (the island replays them after its snapshot). Returns
   the cluster and the applies seen while a replica was not settled. *)
let heal_under_load ~bug =
  let n = 4 in
  let c = make_kcluster ~n ~bug:(fun _ -> bug) () in
  let early = ref 0 in
  Array.iter
    (fun kv ->
      Kv.add_observer kv (function
        | Kv.Applied _ when not (Kv.settled kv) -> incr early
        | _ -> ()))
    c.kvs;
  partition c.sim n ~at:(ms 5) ~heal:(ms 200) [ n - 1 ];
  for i = 0 to 299 do
    Netsim.call_at c.sim
      ~at:(ms 15 + (i * 1_000_000))
      (fun () ->
        Kv.put c.kvs.(i mod (n - 1))
          ~key:(Printf.sprintf "h%02d" (i mod 50))
          ~value:(string_of_int i))
  done;
  Netsim.run_until c.sim (ms 1_200);
  (c, !early)

let test_no_apply_before_election () =
  let c, early = heal_under_load ~bug:Kv.Bug_none in
  check Alcotest.int "applies before an election" 0 early;
  check Alcotest.bool "island installed a snapshot" true
    ((Kv.stats c.kvs.(3)).Kv.installs >= 1);
  assert_converged c [ 0; 1; 2; 3 ]

(* The same run with every replica applying at once: the island applies
   the held-back writes on its stale state, at positions the majority's
   view filled differently, and the one-op-per-position check flags
   it. *)
let test_apply_before_election_bug_caught () =
  let c, early = heal_under_load ~bug:Kv.Bug_apply_before_election in
  check Alcotest.bool "applies before an election" true (early > 0);
  check Alcotest.bool "the oracle flags the island" true
    (List.exists
       (fun v ->
         Oracle.kind_label v.Oracle.o_kind = "log_divergence"
         && v.Oracle.o_node = 3)
       (Oracle.violations c.oracle))

(* -------------------------------------------------------------------- *)
(* Bug injection end-to-end                                              *)

let test_skip_apply_bug_caught () =
  let bug i = if i = 1 then Kv.Bug_skip_apply { every = 3 } else Kv.Bug_none in
  let c = make_kcluster ~bug () in
  Netsim.run_until c.sim (ms 10);
  for i = 0 to 9 do
    Kv.put c.kvs.(0) ~key:(Printf.sprintf "k%d" i) ~value:"v"
  done;
  Netsim.run_until c.sim (ms 120);
  check Alcotest.bool "oracle caught the skipped apply" true
    (Oracle.violation_count c.oracle > 0);
  let v = List.hd (Oracle.violations c.oracle) in
  check Alcotest.string "as stale state" "stale_state"
    (Oracle.kind_label v.Oracle.o_kind);
  check Alcotest.int "at the buggy node" 1 v.Oracle.o_node

(* -------------------------------------------------------------------- *)
(* Oracle unit checks                                                    *)

let test_oracle_clean_stream () =
  let o = Oracle.create () in
  Oracle.observe o ~node:0
    (Kv.Applied
       { index = 1; op = Op.Put { key = "a"; value = "1" }; value = Some "1" });
  Oracle.observe o ~node:0
    (Kv.Read { key = "a"; value = Some "1"; token = 1; sync = false });
  Oracle.observe o ~node:0
    (Kv.Applied { index = 2; op = Op.Del { key = "a" }; value = None });
  Oracle.observe o ~node:0
    (Kv.Read { key = "a"; value = None; token = 2; sync = true });
  check Alcotest.int "clean" 0 (Oracle.violation_count o)

let test_oracle_flags_gap_and_stale () =
  let o = Oracle.create () in
  Oracle.observe o ~node:2
    (Kv.Applied
       { index = 2; op = Op.Put { key = "a"; value = "1" }; value = Some "1" });
  check Alcotest.int "gap flagged" 1 (Oracle.violation_count o);
  Oracle.observe o ~node:2
    (Kv.Applied
       { index = 3; op = Op.Put { key = "a"; value = "2" }; value = Some "1" });
  check Alcotest.int "stale state flagged" 2 (Oracle.violation_count o);
  let kinds =
    List.map (fun v -> Oracle.kind_label v.Oracle.o_kind) (Oracle.violations o)
  in
  check (Alcotest.list Alcotest.string) "kinds"
    [ "apply_gap"; "stale_state" ]
    kinds

let test_oracle_flags_non_monotonic_read () =
  let o = Oracle.create () in
  Oracle.observe o ~node:0
    (Kv.Read { key = "a"; value = None; token = 5; sync = false });
  Oracle.observe o ~node:0
    (Kv.Read { key = "a"; value = None; token = 3; sync = false });
  check Alcotest.int "flagged" 1 (Oracle.violation_count o);
  check Alcotest.string "kind" "non_monotonic_read"
    (Oracle.kind_label (List.hd (Oracle.violations o)).Oracle.o_kind)

let test_oracle_install_rebases () =
  let o = Oracle.create () in
  Oracle.observe o ~node:0
    (Kv.Read { key = "a"; value = None; token = 9; sync = false });
  Oracle.observe o ~node:0
    (Kv.Installed { donor = 1; applied = 4; entries = [ ("a", "x") ] });
  (* Token re-based by the install: a lower token is fine now, and reads
     reflect the installed store. *)
  Oracle.observe o ~node:0
    (Kv.Read { key = "a"; value = Some "x"; token = 4; sync = false });
  Oracle.observe o ~node:0
    (Kv.Applied
       { index = 5; op = Op.Put { key = "b"; value = "y" }; value = Some "y" });
  check Alcotest.int "clean" 0 (Oracle.violation_count o)

(* Two replicas that apply one position with different ops: the second
   is flagged. Direct feeds carry no view, so no exemption applies. *)
let test_oracle_one_op_per_position () =
  let o = Oracle.create () in
  Oracle.observe o ~node:0
    (Kv.Applied
       { index = 1; op = Op.Put { key = "a"; value = "1" }; value = Some "1" });
  Oracle.observe o ~node:1
    (Kv.Applied
       { index = 1; op = Op.Put { key = "a"; value = "1" }; value = Some "1" });
  check Alcotest.int "same op: clean" 0 (Oracle.violation_count o);
  Oracle.observe o ~node:2
    (Kv.Applied
       { index = 1; op = Op.Put { key = "a"; value = "2" }; value = Some "2" });
  check (Alcotest.list Alcotest.string) "different op flagged"
    [ "log_divergence" ]
    (List.map (fun v -> Oracle.kind_label v.Oracle.o_kind) (Oracle.violations o));
  check Alcotest.int "at the second replica" 2
    (List.hd (Oracle.violations o)).Oracle.o_node

(* A skip moves the shadow's index: the next apply follows it with no
   gap, and a read at the skipped-to token is checked. *)
let test_oracle_skip_advances_index () =
  let o = Oracle.create () in
  Oracle.observe o ~node:0 (Kv.Skipped { upto = 4 });
  Oracle.observe o ~node:0
    (Kv.Read { key = "a"; value = None; token = 4; sync = false });
  Oracle.observe o ~node:0
    (Kv.Applied
       { index = 5; op = Op.Put { key = "a"; value = "1" }; value = Some "1" });
  check Alcotest.int "clean" 0 (Oracle.violation_count o);
  Oracle.observe o ~node:0
    (Kv.Read { key = "a"; value = None; token = 5; sync = false });
  check Alcotest.int "a stale read after the skip is flagged" 1
    (Oracle.violation_count o)

(* -------------------------------------------------------------------- *)
(* State-transfer timing                                                 *)

let test_measure_transfer () =
  let r = Kv_scenario.measure_transfer ~store_entries:500 in
  check Alcotest.bool "entries transferred" true
    (r.Kv_scenario.entries_transferred >= 500);
  check Alcotest.bool "timed" true (r.Kv_scenario.xfer_us > 0.0)

(* -------------------------------------------------------------------- *)
(* Own writes                                                            *)

module Envelope = Aring_daemon.Envelope

(* One KV replica on the daemon of an operational member of a 4-member
   ring, driven by hand: [take ()] removes the one frame the replica's
   last client call submitted, and [deliver frame] hands the daemon that
   frame as the ring's next agreed message. No view is delivered, so
   the replica applies each write at once. *)
let hand_driven_replica () =
  let ring_size = 4 in
  let m =
    Member.create ~params:Params.default ~me:0
      ~initial_ring:(Array.init ring_size Fun.id) ()
  in
  ignore ((Member.participant m).start ());
  let engine =
    match Member.node m with
    | Some node -> Node.engine node
    | None -> Alcotest.fail "a member with an initial ring starts operational"
  in
  let d = Aring_daemon.Daemon.create ~member:m () in
  let kv = Kv.create ~cluster_size:ring_size ~daemon:d () in
  Aring_daemon.Daemon.flush d;
  ignore (Engine.drain_pending engine);
  let p = Aring_daemon.Daemon.participant d in
  let seq = ref 0 in
  let deliver payload =
    incr seq;
    ignore
      (p.process
         (Message.Data
            { d_ring = Engine.ring_id engine; seq = !seq; pid = 1; d_round = 1;
              post_token = false; service = Types.Agreed; payload }))
  in
  (* The daemon packs: a flush submits the one envelope it holds. *)
  let take () =
    Aring_daemon.Daemon.flush d;
    match Engine.drain_pending engine with
    | [ (_, frame) ] -> frame
    | l -> Alcotest.failf "%d frames submitted, expected one" (List.length l)
  in
  (kv, take, deliver)

(* The string an own-write check follows: the value a put or cas wrote,
   the key a del removed. *)
let written = function
  | Op.Put { value; _ } | Op.Cas { value; _ } -> value
  | Op.Del { key } -> key
  | op -> Alcotest.failf "not a write: %a" Op.pp op

(* A replica applies its own writes from the ops it submitted, and the
   result is what decoding every delivery gives: its first write is lost
   (a view change dropped it), a foreign write lands between its own,
   and a foreign put carries the content of a pending own put. *)
let test_own_writes_applied_as_submitted () =
  let kv, take, deliver = hand_driven_replica () in
  let applied = ref [] in
  Kv.add_observer kv (function
    | Kv.Applied { index; op; value } -> applied := (index, op, value) :: !applied
    | _ -> ());
  (* Fresh strings, so physical equality tells a submitted op from a
     decoded copy. *)
  let fresh s = Bytes.to_string (Bytes.of_string s) in
  let submit f =
    f ();
    take ()
  in
  let v_lost = fresh "lost" and v_cas = fresh "cas" and v_put = fresh "v3"
  and v_shared = fresh "shared" and v_again = fresh "lost" and k_del = fresh "k2" in
  (* Submitted, never delivered. *)
  ignore (submit (fun () -> Kv.put kv ~key:"k1" ~value:v_lost));
  let cas = submit (fun () -> Kv.cas kv ~key:"k2" ~expect:None ~value:v_cas) in
  let put = submit (fun () -> Kv.put kv ~key:"k1" ~value:v_put) in
  let shared = submit (fun () -> Kv.put kv ~key:"k3" ~value:v_shared) in
  let again = submit (fun () -> Kv.put kv ~key:"k1" ~value:v_again) in
  let del = submit (fun () -> Kv.del kv ~key:k_del) in
  let foreign op =
    Envelope.encode
      (Envelope.App
         { sender = Envelope.member_name ~daemon:1 ~session:"kv"; groups = [ Kv.group ];
           payload = Op.encode op })
  in
  let f_between = foreign (Op.Put { key = "k2"; value = "foreign" }) in
  let f_shared = foreign (Op.Put { key = "k3"; value = fresh "shared" }) in
  let deliveries =
    [ (cas, Some v_cas); (f_between, None); (put, Some v_put); (f_shared, None);
      (shared, Some v_shared); (again, Some v_again); (del, Some k_del) ]
  in
  (* The shadow decodes every delivery. *)
  let shadow = Hashtbl.create 8 and expected = ref [] in
  List.iteri
    (fun i (frame, _) ->
      let op =
        match Envelope.decode frame with
        | Envelope.App { payload; _ } -> Op.decode payload
        | _ -> Alcotest.fail "not an App frame"
      in
      let key =
        match op with
        | Op.Put { key; value } -> Hashtbl.replace shadow key value; key
        | Op.Del { key } -> Hashtbl.remove shadow key; key
        | Op.Cas { key; expect; value } ->
            if Hashtbl.find_opt shadow key = expect then Hashtbl.replace shadow key value;
            key
        | _ -> Alcotest.fail "not a write"
      in
      expected := (i + 1, op, Hashtbl.find_opt shadow key) :: !expected)
    deliveries;
  List.iter (fun (frame, _) -> deliver frame) deliveries;
  let applied = List.rev !applied and expected = List.rev !expected in
  check Alcotest.int "every delivery applied" (List.length expected) (List.length applied);
  check Alcotest.bool "Applied stream equals the decoding shadow" true (applied = expected);
  check
    Alcotest.(list (pair string string))
    "store equals the shadow"
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) shadow []))
    (Kv.entries kv);
  (* Own deliveries apply the submitted op itself; foreign ones a
     decoded copy, even when their content is a pending own write's. *)
  List.iteri
    (fun i ((_, own), (_, op, _)) ->
      let s = written op in
      match own with
      | Some submitted ->
          check Alcotest.bool
            (Printf.sprintf "delivery %d applies the op it submitted" (i + 1))
            true (s == submitted)
      | None ->
          check Alcotest.bool
            (Printf.sprintf "foreign delivery %d applies its own copy" (i + 1))
            false
            (List.exists (fun v -> s == v) [ v_lost; v_cas; v_put; v_shared; v_again ]))
    (List.combine deliveries applied);
  check Alcotest.int "no decode error" 0 (Kv.stats kv).Kv.decode_errors

(* A put issued before the simulator first runs waits in its member
   until [start] installs the pre-agreed ring, which sequences it: a
   fault-free run applies it at every replica. *)
let test_put_before_first_run () =
  let c = make_kcluster () in
  Kv.put c.kvs.(0) ~key:"early" ~value:"1";
  Netsim.run_until c.sim (ms 40);
  Array.iteri
    (fun i kv ->
      check (Alcotest.option Alcotest.string)
        (Printf.sprintf "node %d reads the early put" i)
        (Some "1")
        (fst (Kv.read kv ~key:"early")))
    c.kvs;
  assert_converged c [ 0; 1; 2 ]

(* -------------------------------------------------------------------- *)
(* End-of-run store check                                                *)

(* The [Divergence] verdicts of {!Oracle.check_convergence} on a replica
   whose store holds [replica], put in that order, against a shadow
   installed with the bindings of [shadow], in that order. *)
let divergences ~replica ~shadow =
  let kv, take, deliver = hand_driven_replica () in
  List.iter
    (fun (key, value) ->
      Kv.put kv ~key ~value;
      deliver (take ()))
    replica;
  let o = Oracle.create () in
  Oracle.observe o ~node:(Kv.node kv)
    (Kv.Installed { donor = 1; applied = Kv.applied kv; entries = shadow });
  Oracle.check_convergence o [ kv ];
  List.length
    (List.filter (fun v -> v.Oracle.o_kind = Oracle.Divergence) (Oracle.violations o))

(* The check compares sizes, then looks each shadow binding up in the
   replica: equal stores pass whatever order filled them, and one
   changed value or one extra key on either side is a divergence. *)
let test_convergence_compares_stores () =
  let store = List.init 12 (fun i -> (Printf.sprintf "k%02d" i, string_of_int (i * i))) in
  check Alcotest.int "equal stores filled in different orders" 0
    (divergences ~replica:store ~shadow:(List.rev store));
  check Alcotest.int "one changed value" 1
    (divergences ~replica:store
       ~shadow:(List.map (fun (k, v) -> if k = "k05" then (k, "changed") else (k, v)) store));
  check Alcotest.int "one extra key at the replica" 1
    (divergences ~replica:(store @ [ ("extra", "x") ]) ~shadow:(List.rev store));
  check Alcotest.int "one extra key in the shadow" 1
    (divergences ~replica:store ~shadow:(("extra", "x") :: store))

(* -------------------------------------------------------------------- *)
(* Op-log verdicts against a Hashtbl model                               *)

(* Test-only copy of the oracle's op log as it was on a [Hashtbl] of
   entry records, with its prune rule, and of the shadow indices the
   rule reads. *)
module Ref_log = struct
  type entry = { mutable op : Op.t; mutable count : int }

  type t = {
    ops : (int, entry) Hashtbl.t;
    mutable pruned : int;
    mutable prune_at : int;
    index : (int, int) Hashtbl.t;  (* node -> shadow index *)
  }

  let create () =
    { ops = Hashtbl.create 64; pruned = 0; prune_at = 256; index = Hashtbl.create 8 }

  let prune t =
    let low = Hashtbl.fold (fun _ i low -> min low i) t.index max_int in
    for p = t.pruned + 1 to low do
      Hashtbl.remove t.ops p
    done;
    t.pruned <- max t.pruned low;
    t.prune_at <- max 256 (2 * Hashtbl.length t.ops)

  (* The [Log_divergence] detail of applying [op] at [index], if any. *)
  let check t ~replicas index op =
    match Hashtbl.find t.ops index with
    | e when e.op = op ->
        e.count <- e.count + 1;
        None
    | e ->
        if 2 * e.count > replicas then
          Some
            (Printf.sprintf "position %d: applied %s, but %d replicas applied %s there" index
               (Format.asprintf "%a" Op.pp op) e.count
               (Format.asprintf "%a" Op.pp e.op))
        else begin
          e.op <- op;
          e.count <- 1;
          None
        end
    | exception Not_found ->
        if index > t.pruned then begin
          Hashtbl.replace t.ops index { op; count = 1 };
          if Hashtbl.length t.ops >= t.prune_at then prune t
        end;
        None
end

(* One node's next observation: the next position, a jump forward or
   back (a position applied twice, or one far past the window), a skip,
   an install, or a cold reset of the whole log. *)
type log_step = Next | Jump of int | Back of int | Skip of int | Install of int | Reset

let log_step_gen =
  QCheck.Gen.(
    frequency
      [
        (800, return Next);
        (30, map (fun k -> Jump k) (1 -- 1_500));
        (60, map (fun k -> Back k) (1 -- 300));
        (20, map (fun k -> Skip k) (1 -- 300));
        (10, map (fun k -> Install k) (-50 -- 50));
        (1, map (fun _ -> Reset) unit);
      ])

(* [steps] (node, put value, step) fed to an oracle with [replicas]
   attached and to the model: the same verdicts, in the same order. *)
let log_matches_model ~replicas steps =
  let o = Oracle.create () in
  (* Attached replicas only set the majority; none is driven. *)
  for _ = 1 to replicas do
    let kv, _, _ = hand_driven_replica () in
    Oracle.attach o kv
  done;
  let m = Ref_log.create () in
  let expected = ref [] and gaps = ref 0 in
  let index node = Option.value ~default:0 (Hashtbl.find_opt m.Ref_log.index node) in
  List.iter
    (fun (node, v, step) ->
      let apply at =
        let op = Op.Put { key = "a"; value = string_of_int v } in
        if at <> index node + 1 then incr gaps;
        Hashtbl.replace m.Ref_log.index node at;
        Option.iter
          (fun d -> expected := (node, d) :: !expected)
          (Ref_log.check m ~replicas at op);
        Oracle.observe o ~node
          (Kv.Applied { index = at; op; value = Some (string_of_int v) })
      in
      match step with
      | Next -> apply (index node + 1)
      | Jump k -> apply (index node + k)
      | Back k -> apply (max 1 (index node - k))
      | Skip k ->
          Hashtbl.replace m.Ref_log.index node (index node + k);
          Oracle.observe o ~node (Kv.Skipped { upto = index node })
      | Install k ->
          let applied = max 0 (index node + k) in
          Hashtbl.replace m.Ref_log.index node applied;
          Oracle.observe o ~node (Kv.Installed { donor = 0; applied; entries = [] })
      | Reset ->
          Hashtbl.replace m.Ref_log.index node 0;
          Hashtbl.reset m.Ref_log.ops;
          m.Ref_log.pruned <- 0;
          Oracle.observe o ~node Kv.Reset)
    steps;
  let got =
    List.filter_map
      (fun v ->
        if v.Oracle.o_kind = Oracle.Log_divergence then Some (v.Oracle.o_node, v.Oracle.o_detail)
        else None)
      (Oracle.violations o)
  in
  (* Every verdict is counted (each put holds its value, so the only
     others are gaps); the first 100 of all kinds are kept. *)
  let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> [] in
  Oracle.violation_count o = !gaps + List.length !expected
  && got = take (List.length got) (List.rev !expected)

let prop_log_matches_model =
  QCheck.Test.make ~name:"oracle op-log verdicts equal the Hashtbl log's" ~count:100
    (* Node 0 takes half the steps, so it runs ahead of the others and
       the log fills up to its prune threshold. *)
    QCheck.(
      make
        Gen.(
          list_size (0 -- 4_000)
            (triple (frequency [ (3, return 0); (1, 1 -- 3) ]) (0 -- 2) log_step_gen)))
    (log_matches_model ~replicas:3)

(* A prune that reaches the top of the log's window: node 1 has skipped
   past it, and node 0's put at every other position fills the log to
   its threshold exactly at the window's last position. Nothing of it
   may survive to be taken for the position that shares its slot. *)
let test_log_prune_clears_window_top () =
  let steps =
    ((1, 0, Skip 600) :: List.init 256 (fun _ -> (0, 0, Jump 2))) @ [ (1, 1, Jump 424) ]
  in
  check Alcotest.bool "verdicts equal the model's" true (log_matches_model ~replicas:1 steps)

let suite =
  [
    Alcotest.test_case "op codec roundtrips" `Quick test_op_roundtrips;
    QCheck_alcotest.to_alcotest prop_op_put_roundtrip;
    Alcotest.test_case "op codec rejects garbage" `Quick test_op_rejects_garbage;
    Alcotest.test_case "basic replication" `Quick test_basic_replication;
    Alcotest.test_case "cas semantics" `Quick test_cas_semantics;
    Alcotest.test_case "sync read" `Quick test_sync_read;
    Alcotest.test_case "state transfer on heal" `Quick test_state_transfer_on_heal;
    Alcotest.test_case "minority writes rejected" `Quick
      test_minority_writes_rejected;
    Alcotest.test_case "joiner crash mid-transfer" `Quick
      test_joiner_crash_mid_transfer;
    Alcotest.test_case "donor crash mid-transfer" `Quick
      test_donor_crash_mid_transfer;
    Alcotest.test_case "re-partition mid-transfer" `Quick
      test_repartition_mid_transfer;
    Alcotest.test_case "no apply before the election" `Quick
      test_no_apply_before_election;
    Alcotest.test_case "seeded apply-before-election bug caught" `Quick
      test_apply_before_election_bug_caught;
    Alcotest.test_case "seeded skip-apply bug caught" `Quick
      test_skip_apply_bug_caught;
    Alcotest.test_case "oracle: clean stream" `Quick test_oracle_clean_stream;
    Alcotest.test_case "oracle: gap and stale state" `Quick
      test_oracle_flags_gap_and_stale;
    Alcotest.test_case "oracle: non-monotonic read" `Quick
      test_oracle_flags_non_monotonic_read;
    Alcotest.test_case "oracle: install re-bases" `Quick
      test_oracle_install_rebases;
    Alcotest.test_case "oracle: one op per position" `Quick
      test_oracle_one_op_per_position;
    Alcotest.test_case "oracle: skip advances the index" `Quick
      test_oracle_skip_advances_index;
    Alcotest.test_case "measure transfer" `Quick test_measure_transfer;
    Alcotest.test_case "own writes applied as submitted" `Quick
      test_own_writes_applied_as_submitted;
    Alcotest.test_case "put before the first run is applied" `Quick
      test_put_before_first_run;
    Alcotest.test_case "oracle: end-of-run check compares stores" `Quick
      test_convergence_compares_stores;
    QCheck_alcotest.to_alcotest prop_log_matches_model;
    Alcotest.test_case "oracle: a prune to the window's top keeps no entry" `Quick
      test_log_prune_clears_window_top;
  ]
