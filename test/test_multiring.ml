(* Multi-ring sharded ordering: qcheck properties of the deterministic
   learner merge, cluster end-to-end smoke, cross-shard multi-key cas
   regressions under ring-scoped faults, and the multi-ring load driver.

   The merge properties are the heart of the design: the merged order
   must be a pure function of the per-ring input sequences, so that any
   two learners that receive the same per-ring streams — no matter how
   deliveries interleave in real time — emit identical total orders. *)

open Aring_multiring
module Kv = Aring_app.Kv
module Op = Aring_app.Op
module Netsim = Aring_sim.Netsim
module Load = Aring_load.Load
module Stats = Aring_util.Stats

let check = Alcotest.check
let ms n = n * 1_000_000

(* ---------------- merge: generators ---------------- *)

(* Per-ring input sequences: items carry (ring, seq) so properties can
   check provenance; skips are small. *)
let gen_inputs =
  QCheck.Gen.(
    let* rings = int_range 1 4 in
    let* seqs =
      array_repeat rings
        (list_size (int_bound 30)
           (frequency
              [ (4, return `Item); (1, map (fun k -> `Skip (k + 1)) (int_bound 3)) ]))
    in
    return (rings, seqs))

let arb_inputs =
  QCheck.make ~print:(fun (rings, seqs) ->
      Printf.sprintf "rings=%d seqs=[%s]" rings
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun l ->
                   String.concat ","
                     (List.map
                        (function `Item -> "I" | `Skip k -> "S" ^ string_of_int k)
                        l))
                 seqs))))
    gen_inputs

(* Number each ring's items, then append one big flush-skip per ring so
   a fully-fed merge always drains (liveness by construction — the
   *properties* are about order, not about idle-ring stalls). *)
let materialize (rings, seqs) =
  Array.init rings (fun r ->
      let n = ref 0 in
      List.map
        (function
          | `Item ->
              incr n;
              Merge.Item (r, !n)
          | `Skip k -> Merge.Skip k)
        seqs.(r)
      @ [ Merge.Skip 1_000_000 ])

(* Reference order: push everything ring by ring, then drain. *)
let reference_order rings inputs =
  let m = Merge.create ~rings in
  Array.iteri
    (fun r l -> List.iter (fun i -> Merge.push m ~ring:r i) l)
    inputs;
  Merge.pop_all m

(* Deterministic "random" interleaving of the per-ring pushes (seeded
   LCG — qcheck shrinking stays reproducible), popping greedily after
   every push. *)
let interleaved_order ~seed rings inputs =
  let m = Merge.create ~rings in
  let queues = Array.map (fun l -> ref l) inputs in
  let state = ref (seed land 0x3FFFFFFF) in
  let rand bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let out = ref [] in
  let remaining () =
    Array.fold_left (fun acc q -> acc + List.length !q) 0 queues
  in
  while remaining () > 0 do
    (* pick a non-empty ring *)
    let r = ref (rand rings) in
    while !(queues.(!r)) = [] do
      r := (!r + 1) mod rings
    done;
    (match !(queues.(!r)) with
    | [] -> assert false
    | i :: rest ->
        queues.(!r) := rest;
        Merge.push m ~ring:!r i);
    if rand 3 > 0 then out := List.rev_append (Merge.pop_all m) !out
  done;
  out := List.rev_append (Merge.pop_all m) !out;
  List.rev !out

(* ---------------- merge: properties ---------------- *)

(* Any interleaving of pushes and pops yields the reference order. *)
let prop_merge_deterministic =
  QCheck.Test.make ~name:"merge order independent of push/pop interleaving"
    ~count:400
    QCheck.(pair arb_inputs small_int)
    (fun ((rings, seqs), seed) ->
      let inputs = materialize (rings, seqs) in
      reference_order rings inputs = interleaved_order ~seed rings inputs)

(* The merged stream restricted to one ring is exactly that ring's item
   sequence (FIFO, nothing dropped, nothing duplicated), and the union
   is the full multiset. *)
let prop_merge_fifo_complete =
  QCheck.Test.make ~name:"merge is per-ring FIFO and loses nothing"
    ~count:400 arb_inputs (fun (rings, seqs) ->
      let inputs = materialize (rings, seqs) in
      let out = reference_order rings inputs in
      let total_items =
        Array.fold_left
          (fun acc l ->
            acc
            + List.length
                (List.filter (function Merge.Item _ -> true | _ -> false) l))
          0 inputs
      in
      List.length out = total_items
      && List.for_all
           (fun r ->
             let expect =
               List.filter_map
                 (function Merge.Item (_, n) -> Some n | _ -> None)
                 inputs.(r)
             in
             let got =
               List.filter_map
                 (fun (r', (_, n)) -> if r' = r then Some n else None)
                 out
             in
             got = expect)
           (List.init rings Fun.id))

(* One ring: the merge is the identity on items; skips are transparent. *)
let prop_merge_single_ring_identity =
  QCheck.Test.make ~name:"merge with one ring is the identity" ~count:200
    arb_inputs (fun (_, seqs) ->
      let inputs = materialize (1, [| Array.to_list seqs |> List.concat |]) in
      let out = reference_order 1 inputs in
      let expect =
        List.filter_map
          (function Merge.Item x -> Some (0, x) | _ -> None)
          inputs.(0)
      in
      out = expect)

(* Blocking: with an item-holding ring and a silent one, nothing emits
   until the silent ring speaks — then everything does. *)
let test_merge_blocks_on_silent_ring () =
  let m = Merge.create ~rings:2 in
  Merge.push m ~ring:1 (Merge.Item "b1");
  check Alcotest.bool "blocked while ring 0 silent" true (Merge.pop m = None);
  Merge.push m ~ring:0 (Merge.Item "a1");
  check Alcotest.bool "ring 0 emits first" true (Merge.pop m = Some (0, "a1"));
  check Alcotest.bool "then ring 1" true (Merge.pop m = Some (1, "b1"));
  Merge.push m ~ring:1 (Merge.Item "b2");
  check Alcotest.bool "blocked again" true (Merge.pop m = None);
  Merge.push m ~ring:0 (Merge.Skip 5);
  check Alcotest.bool "skip unblocks" true (Merge.pop m = Some (1, "b2"));
  check Alcotest.int "credit spent" 1 (Merge.credits_spent m)

(* Skip credits must not let later-pushed items jump unconsumed
   credit: units are consumed in queue position. *)
let test_merge_skip_queue_position () =
  let m = Merge.create ~rings:2 in
  Merge.push m ~ring:0 (Merge.Skip 3);
  Merge.push m ~ring:1 (Merge.Item "b1");
  check Alcotest.bool "b1 emits through the skip" true
    (Merge.pop m = Some (1, "b1"));
  (* An item pushed on ring 0 now queues *behind* the skip's remaining
     units — ring 1 still owns the next turns the skip ceded. *)
  Merge.push m ~ring:0 (Merge.Item "a1");
  Merge.push m ~ring:1 (Merge.Item "b2");
  check Alcotest.bool "remaining credit still cedes to ring 1" true
    (Merge.pop m = Some (1, "b2"));
  Merge.push m ~ring:1 (Merge.Skip 1_000);
  check Alcotest.bool "a1 emits after the credit runs out" true
    (Merge.pop m = Some (0, "a1"))

(* ---------------- cluster: end-to-end ---------------- *)

let drive ?(deadline = ms 3_000) ?(settle_after = ms 200) cluster =
  let sim = Cluster.sim cluster in
  let t = ref 0 in
  let stop = ref false in
  while not !stop do
    t := min deadline (!t + ms 20);
    Netsim.run_until sim !t;
    if !t >= deadline then stop := true
    else if
      !t > settle_after
      && Cluster.kv_converged cluster
      && Cluster.merge_settled cluster
    then stop := true
  done

let keys_per_ring cluster ~count =
  (* First [count] keys of each shard, by probing. *)
  let rings = Cluster.rings cluster in
  let buckets = Array.make rings [] in
  let i = ref 0 in
  while Array.exists (fun l -> List.length l < count) buckets do
    let k = Printf.sprintf "mk%04d" !i in
    incr i;
    let s = Cluster.shard_of_key cluster k in
    if List.length buckets.(s) < count then buckets.(s) <- buckets.(s) @ [ k ]
  done;
  buckets

let test_cluster_smoke () =
  let cluster = Cluster.create ~rings:2 ~nodes:3 ~seed:7L () in
  let sim = Cluster.sim cluster in
  (* Record each node's merged stream of (ring, index). *)
  let streams = Array.make 3 [] in
  Cluster.on_merged cluster (fun ~node ~ring it ->
      streams.(node) <- (ring, it.Cluster.mi_index) :: streams.(node));
  let buckets = keys_per_ring cluster ~count:4 in
  Netsim.call_at sim ~at:(ms 30) (fun () ->
      Array.iter
        (fun ks ->
          List.iteri
            (fun i k ->
              Cluster.put cluster ~node:(i mod 3) ~key:k ~value:("v" ^ k))
            ks)
        buckets);
  drive cluster;
  check Alcotest.bool "kv converged" true (Cluster.kv_converged cluster);
  check Alcotest.bool "merge settled" true (Cluster.merge_settled cluster);
  Cluster.check_convergence cluster;
  check Alcotest.int "no oracle violations" 0
    (Cluster.oracle_violations cluster);
  check Alcotest.bool "merged something" true (streams.(0) <> []);
  (* Every learner merged the identical total order. *)
  check Alcotest.bool "identical merged streams" true
    (streams.(1) = streams.(0) && streams.(2) = streams.(0));
  (* All eight writes reached their shard. *)
  Array.iteri
    (fun r ks ->
      List.iter
        (fun k ->
          let v, _ = Kv.read (Cluster.kv cluster ~ring:r ~node:0) ~key:k in
          check
            Alcotest.(option string)
            (k ^ " applied on its shard") (Some ("v" ^ k)) v)
        ks)
    buckets

(* One ring's merge is the identity, so [Cluster.create ~rings:1] runs
   no skip generators: an idle cluster delivers no skip at any replica.
   Two rings idle the same way do, which keeps the counter honest. *)
let test_one_ring_no_skips () =
  let skips ~rings =
    let cluster = Cluster.create ~rings ~nodes:3 ~seed:5L () in
    Netsim.run_until (Cluster.sim cluster) (ms 50);
    List.concat_map
      (fun ring ->
        List.init 3 (fun node ->
            (Kv.stats (Cluster.kv cluster ~ring ~node)).Kv.skips))
      (List.init rings Fun.id)
  in
  List.iteri
    (fun i n -> check Alcotest.int (Printf.sprintf "1 ring: replica %d skips" i) 0 n)
    (skips ~rings:1);
  check Alcotest.bool "2 rings: idle replicas see skips" true
    (List.for_all (fun n -> n > 0) (skips ~rings:2))

let test_cluster_mcas_commit_and_abort () =
  let cluster = Cluster.create ~rings:2 ~nodes:3 ~seed:9L () in
  let sim = Cluster.sim cluster in
  let buckets = keys_per_ring cluster ~count:1 in
  let k0 = List.hd buckets.(0) and k1 = List.hd buckets.(1) in
  Netsim.call_at sim ~at:(ms 30) (fun () ->
      Cluster.put cluster ~node:0 ~key:k0 ~value:"a0";
      Cluster.put cluster ~node:1 ~key:k1 ~value:"b0");
  (* Committing mcas: checks match on both shards. *)
  Netsim.call_at sim ~at:(ms 120) (fun () ->
      Cluster.mcas cluster ~node:0 ~id:"m-commit"
        ~checks:[ (k0, Some "a0"); (k1, Some "b0") ]
        ~writes:[ (k0, "a1"); (k1, "b1") ]);
  (* Aborting mcas: the check on shard 1 is stale. *)
  Netsim.call_at sim ~at:(ms 240) (fun () ->
      Cluster.mcas cluster ~node:2 ~id:"m-abort"
        ~checks:[ (k0, Some "a1"); (k1, Some "wrong") ]
        ~writes:[ (k0, "a2"); (k1, "b2") ]);
  drive cluster ~settle_after:(ms 300);
  check Alcotest.bool "converged" true (Cluster.kv_converged cluster);
  Cluster.check_convergence cluster;
  check Alcotest.int "no oracle violations" 0
    (Cluster.oracle_violations cluster);
  (* Atomic: commit applied on both shards, abort on neither. *)
  let read r k = fst (Kv.read (Cluster.kv cluster ~ring:r ~node:2) ~key:k) in
  check Alcotest.(option string) "commit shard 0" (Some "a1") (read 0 k0);
  check Alcotest.(option string) "commit shard 1" (Some "b1") (read 1 k1);
  (* Decisions agree everywhere, with the expected outcome bit. *)
  List.iter
    (fun (id, expect) ->
      let ds = Cluster.decisions_for cluster id in
      check Alcotest.bool (id ^ " decided somewhere") true (ds <> []);
      List.iter
        (fun (_, _, commit) ->
          check Alcotest.bool (id ^ " outcome uniform") expect commit)
        ds)
    [ ("m-commit", true); ("m-abort", false) ]

(* ---------------- cross-shard cas regressions ---------------- *)

(* Partition one ring mid-cas: isolate one node of ring 1 (only ring
   1's traffic crosses the cut) just as the mcas is submitted. The op
   must decide exactly once, atomically, and the healed ring must
   reconverge with the parked state resolved everywhere. *)
let test_mcas_partition_one_ring () =
  let cluster = Cluster.create ~rings:2 ~nodes:4 ~seed:13L () in
  let sim = Cluster.sim cluster in
  let buckets = keys_per_ring cluster ~count:1 in
  let k0 = List.hd buckets.(0) and k1 = List.hd buckets.(1) in
  Netsim.call_at sim ~at:(ms 30) (fun () ->
      Cluster.put cluster ~node:0 ~key:k0 ~value:"p0";
      Cluster.put cluster ~node:0 ~key:k1 ~value:"q0");
  (* Cut: ring 1's participant at node 3 is alone; ring 0 untouched. *)
  let lone = Cluster.pid cluster ~ring:1 ~node:3 in
  Netsim.call_at sim ~at:(ms 150) (fun () ->
      Netsim.set_drop_until sim ~until:(ms 700) (fun ~src ~dst _ ->
          (src = lone) <> (dst = lone)));
  Netsim.call_at sim ~at:(ms 160) (fun () ->
      Cluster.mcas cluster ~node:1 ~id:"m-part"
        ~checks:[ (k0, Some "p0"); (k1, Some "q0") ]
        ~writes:[ (k0, "p1"); (k1, "q1") ]);
  drive cluster ~deadline:(ms 5_000) ~settle_after:(ms 800);
  check Alcotest.bool "converged after heal" true
    (Cluster.kv_converged cluster);
  check Alcotest.bool "merge settled" true (Cluster.merge_settled cluster);
  Cluster.check_convergence cluster;
  check Alcotest.int "no oracle violations" 0
    (Cluster.oracle_violations cluster);
  (* Atomicity: both writes applied or neither — never half. *)
  let v0 = fst (Kv.read (Cluster.kv cluster ~ring:0 ~node:2) ~key:k0) in
  let v1 = fst (Kv.read (Cluster.kv cluster ~ring:1 ~node:2) ~key:k1) in
  let applied = (v0 = Some "p1", v1 = Some "q1") in
  check Alcotest.bool "atomic across the partitioned ring" true
    (applied = (true, true) || applied = (false, false));
  let ds = Cluster.decisions_for cluster "m-part" in
  check Alcotest.bool "decided" true (ds <> []);
  List.iter
    (fun (_, _, commit) ->
      check Alcotest.bool "uniform outcome" (fst applied) commit)
    ds

(* Ring membership change between the two shard submissions: ring 1's
   copy is submitted only after a node of ring 1 crashed (staged
   Kv.submit_mcas, not the atomic Cluster.mcas) — the vote table and
   park must survive the view change and the op still decides
   atomically. *)
let test_mcas_membership_change_between_writes () =
  let cluster = Cluster.create ~rings:2 ~nodes:4 ~seed:17L () in
  let sim = Cluster.sim cluster in
  let buckets = keys_per_ring cluster ~count:1 in
  let k0 = List.hd buckets.(0) and k1 = List.hd buckets.(1) in
  Netsim.call_at sim ~at:(ms 30) (fun () ->
      Cluster.put cluster ~node:0 ~key:k0 ~value:"s0";
      Cluster.put cluster ~node:0 ~key:k1 ~value:"t0");
  let parts =
    [
      { Op.mp_ring = 0; mp_checks = [ (k0, Some "s0") ]; mp_writes = [ (k0, "s1") ] };
      { Op.mp_ring = 1; mp_checks = [ (k1, Some "t0") ]; mp_writes = [ (k1, "t1") ] };
    ]
  in
  (* Stage 1: ring 0's copy goes out; ring 0 parks on its vote. *)
  Netsim.call_at sim ~at:(ms 150) (fun () ->
      Kv.submit_mcas (Cluster.kv cluster ~ring:0 ~node:1) ~id:"m-mem" ~parts);
  (* Ring 1 (and only ring 1, physically: the whole node) loses node 3
     — but crash the node entirely so both rings change view. *)
  Netsim.call_at sim ~at:(ms 250) (fun () -> Cluster.crash cluster ~node:3);
  (* Stage 2: ring 1's copy goes out after the membership change. *)
  Netsim.call_at sim ~at:(ms 600) (fun () ->
      Kv.submit_mcas (Cluster.kv cluster ~ring:1 ~node:1) ~id:"m-mem" ~parts);
  drive cluster ~deadline:(ms 6_000) ~settle_after:(ms 700);
  check Alcotest.bool "converged" true (Cluster.kv_converged cluster);
  Cluster.check_convergence cluster;
  check Alcotest.int "no oracle violations" 0
    (Cluster.oracle_violations cluster);
  let v0 = fst (Kv.read (Cluster.kv cluster ~ring:0 ~node:1) ~key:k0) in
  let v1 = fst (Kv.read (Cluster.kv cluster ~ring:1 ~node:1) ~key:k1) in
  let applied = (v0 = Some "s1", v1 = Some "t1") in
  check Alcotest.bool "atomic across the view change" true
    (applied = (true, true) || applied = (false, false));
  check Alcotest.bool "eventually decided" true
    (Cluster.decisions_for cluster "m-mem" <> [])

(* One ring 100x slower than the other: the merge must stay live (skips
   from the slow ring keep fast-ring items emerging) and the skew must
   not break mcas atomicity. *)
let test_mcas_slow_ring_skew () =
  let cluster = Cluster.create ~rings:2 ~nodes:3 ~seed:23L () in
  let sim = Cluster.sim cluster in
  (* Ring 1's links at 1% speed. *)
  for node = 0 to 2 do
    let p = Cluster.pid cluster ~ring:1 ~node in
    Netsim.set_link_rates sim ~node:p ~up_bps:10_000_000 ~down_bps:10_000_000 ()
  done;
  let buckets = keys_per_ring cluster ~count:3 in
  let k0 = List.hd buckets.(0) and k1 = List.hd buckets.(1) in
  Netsim.call_at sim ~at:(ms 30) (fun () ->
      (* Traffic on the fast ring... *)
      List.iteri
        (fun i k -> Cluster.put cluster ~node:(i mod 3) ~key:k ~value:"f")
        buckets.(0);
      (* ...and a trickle on the slow one. *)
      Cluster.put cluster ~node:0 ~key:k1 ~value:"u0");
  Netsim.call_at sim ~at:(ms 400) (fun () ->
      Cluster.mcas cluster ~node:0 ~id:"m-skew"
        ~checks:[ (k1, Some "u0") ]
        ~writes:[ (k0, "fx"); (k1, "u1") ]);
  drive cluster ~deadline:(ms 8_000) ~settle_after:(ms 500);
  check Alcotest.bool "converged despite skew" true
    (Cluster.kv_converged cluster);
  check Alcotest.bool "merge stayed live" true (Cluster.merge_settled cluster);
  Cluster.check_convergence cluster;
  check Alcotest.int "no oracle violations" 0
    (Cluster.oracle_violations cluster);
  let v0 = fst (Kv.read (Cluster.kv cluster ~ring:0 ~node:1) ~key:k0) in
  let v1 = fst (Kv.read (Cluster.kv cluster ~ring:1 ~node:1) ~key:k1) in
  let applied = (v0 = Some "fx", v1 = Some "u1") in
  check Alcotest.bool "atomic under 100x skew" true
    (applied = (true, true) || applied = (false, false));
  check Alcotest.bool "merge consumed skip credits" true
    (Cluster.mcas_submitted cluster = 1)

(* ---------------- multi-ring load driver ---------------- *)

let mload_spec =
  {
    Load.default_spec with
    label = "mload-test";
    rings = 2;
    sessions_per_node = 20;
    n_groups = 8;
    ops_per_sec = 2_000.0;
    key_space = 64;
    mcas_permille = 40;
    sync_read_permille = 0;
    warmup_ns = ms 60;
    measure_ns = ms 200;
    drain_ns = ms 1_500;
    seed = 31L;
  }

let test_mload_smoke () =
  let r = Mload.run mload_spec in
  check Alcotest.int "no oracle violations" 0 r.Mload.oracle_violations;
  check Alcotest.bool "converged" true r.Mload.converged;
  check Alcotest.bool "merged traffic" true (r.Mload.merged_total > 0);
  check Alcotest.bool "both rings carried load" true
    (Array.for_all (fun c -> c > 0) r.Mload.per_ring_applied);
  check Alcotest.bool "mcas committed" true (r.Mload.mcas_commits > 0);
  check Alcotest.bool "write latency measured" true
    (Stats.count r.Mload.write_latency_us > 0);
  check Alcotest.int "queue drained" 0 r.Mload.queue_depth_end

let test_mload_deterministic () =
  let a = Mload.run mload_spec and b = Mload.run mload_spec in
  check Alcotest.int "offered equal" a.Mload.ops_offered b.Mload.ops_offered;
  check Alcotest.int "merged equal" a.Mload.merged_total b.Mload.merged_total;
  check Alcotest.int "mcas commits equal" a.Mload.mcas_commits
    b.Mload.mcas_commits;
  check Alcotest.int "end time equal" a.Mload.end_ns b.Mload.end_ns

(* Load must reject multi-ring specs. *)
let test_dispatch_guards () =
  Alcotest.check_raises "Load rejects rings=2"
    (Invalid_argument "Load.run: multi-ring specs run via Aring_multiring.Mload.run")
    (fun () -> ignore (Load.run { Load.default_spec with rings = 2 }))

(* The session-level dimensions at two rings: background churn, a
   reconnect storm, slow receivers on every ring's daemons and physical
   node 3 cut away (in both rings) for 60 ms, all in one run. *)
let test_mload_sessions_dimensions () =
  let r =
    Mload.run
      {
        mload_spec with
        label = "mload-sessions";
        churn =
          Some
            {
              Load.mean_lifetime_ns = ms 80;
              reconnect_delay_ns = ms 4;
              storm =
                Some
                  {
                    Load.storm_at_ns = ms 150;
                    storm_sessions = 20;
                    storm_window_ns = ms 15;
                  };
            };
        slow = Some { Load.slow_per_node = 1; drain_per_sec = 500.0 };
        partition =
          Some
            {
              Aring_app.Kv_scenario.part_at_ns = ms 100;
              heal_at_ns = ms 160;
              island = [ 3 ];
            };
      }
  in
  check Alcotest.int "no oracle violations" 0 r.Mload.oracle_violations;
  check Alcotest.bool "converged" true r.Mload.converged;
  check Alcotest.bool "every storm session back" true
    r.Mload.sessions.Load.storm_all_reconnected;
  check Alcotest.bool "reconnects" true (r.Mload.sessions.Load.reconnects > 0);
  check Alcotest.bool "merged traffic" true (r.Mload.merged_total > 0)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    qtest prop_merge_deterministic;
    qtest prop_merge_fifo_complete;
    qtest prop_merge_single_ring_identity;
    ("merge blocks on silent ring", `Quick, test_merge_blocks_on_silent_ring);
    ("merge skips keep queue position", `Quick, test_merge_skip_queue_position);
    ("cluster smoke: identical merged streams", `Quick, test_cluster_smoke);
    ("one ring gets no skip generators", `Quick, test_one_ring_no_skips);
    ("mcas commit and abort", `Quick, test_cluster_mcas_commit_and_abort);
    ("mcas vs partition of one ring", `Quick, test_mcas_partition_one_ring);
    ( "mcas vs membership change between writes",
      `Quick,
      test_mcas_membership_change_between_writes );
    ("mcas vs 100x ring skew", `Quick, test_mcas_slow_ring_skew);
    ("mload smoke", `Quick, test_mload_smoke);
    ("mload deterministic", `Quick, test_mload_deterministic);
    ("dispatch guards", `Quick, test_dispatch_guards);
    ( "mload churn, storm, slow receivers and partition",
      `Quick,
      test_mload_sessions_dimensions );
  ]
