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

let test_params =
  {
    (Params.accelerated ()) with
    token_loss_ns = ms 50;
    token_retransmit_ns = ms 10;
    join_retransmit_ns = ms 20;
    consensus_timeout_ns = ms 100;
    merge_probe_ns = ms 80;
  }

type kcluster = {
  sim : Netsim.t;
  kvs : Kv.t array;
  oracle : Oracle.t;
}

let make_kcluster ?(n = 3) ?(seed = 3L) ?(bug = fun _ -> Kv.Bug_none) () =
  let { Kv_scenario.sim; kvs; oracles; _ } =
    Kv_scenario.build_cluster
      ~kv_bug:(fun ~ring:_ ~node -> Some (bug node))
      ~rings:1 ~n ~net:Profile.gigabit ~tier:Profile.daemon ~params:test_params
      ~seed ()
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

(* -------------------------------------------------------------------- *)
(* State-transfer timing                                                 *)

let test_measure_transfer () =
  let r = Kv_scenario.measure_transfer ~store_entries:500 () in
  check Alcotest.bool "entries transferred" true
    (r.Kv_scenario.entries_transferred >= 500);
  check Alcotest.bool "timed" true (r.Kv_scenario.xfer_us > 0.0)

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
    Alcotest.test_case "seeded skip-apply bug caught" `Quick
      test_skip_apply_bug_caught;
    Alcotest.test_case "oracle: clean stream" `Quick test_oracle_clean_stream;
    Alcotest.test_case "oracle: gap and stale state" `Quick
      test_oracle_flags_gap_and_stale;
    Alcotest.test_case "oracle: non-monotonic read" `Quick
      test_oracle_flags_non_monotonic_read;
    Alcotest.test_case "oracle: install re-bases" `Quick
      test_oracle_install_rebases;
    Alcotest.test_case "measure transfer" `Quick test_measure_transfer;
  ]
