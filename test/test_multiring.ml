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

(* A learner that seeks one ring past a stretch it never saw (a snapshot
   install: the stretch's units are known only as a position) emits the
   same order as a learner that saw every item, minus that stretch's
   items — whatever the interleaving of its pushes and drains. *)
let prop_merge_seek_same_suffix =
  QCheck.Test.make ~name:"merge seek to a snapshot keeps the suffix"
    ~count:400
    QCheck.(triple arb_inputs small_int small_int)
    (fun ((rings, seqs), cut, seed) ->
      let inputs = materialize (rings, seqs) in
      let r = seed mod rings in
      (* Ring r's inputs [from, cut) are missed (never its flush skip). *)
      let cut = cut mod List.length inputs.(r) in
      let from = seed / 7 mod (cut + 1) in
      let missed_at i = i >= from && i < cut in
      let missed = List.filteri (fun i _ -> missed_at i) inputs.(r) in
      let units =
        List.fold_left
          (fun acc -> function Merge.Item _ -> acc + 1 | Merge.Skip k -> acc + max 0 k)
          0 missed
      in
      let items l = List.length (List.filter (function Merge.Item _ -> true | _ -> false) l) in
      let first_missed = items (List.filteri (fun i _ -> i < from) inputs.(r)) + 1 in
      let last_missed = first_missed + items missed - 1 in
      let seeker = Array.copy inputs in
      seeker.(r) <-
        List.concat
          (List.mapi
             (fun i x ->
               let kept = if missed_at i then [] else [ x ] in
               if i = from then Merge.Skip units :: kept else kept)
             inputs.(r));
      let expect =
        List.filter
          (fun (ring, (_, n)) -> not (ring = r && n >= first_missed && n <= last_missed))
          (reference_order rings inputs)
      in
      interleaved_order ~seed rings seeker = expect)

(* Blocking: with an item-holding ring and a silent one, nothing emits
   until the silent ring speaks — then everything does. *)
let merged = Alcotest.(list (pair int string))

let test_merge_blocks_on_silent_ring () =
  let m = Merge.create ~rings:2 in
  Merge.push m ~ring:1 (Merge.Item "b1");
  check merged "blocked while ring 0 silent" [] (Merge.pop_all m);
  Merge.push m ~ring:0 (Merge.Item "a1");
  check merged "ring 0 emits first, then ring 1" [ (0, "a1"); (1, "b1") ]
    (Merge.pop_all m);
  Merge.push m ~ring:1 (Merge.Item "b2");
  check merged "blocked again" [] (Merge.pop_all m);
  Merge.push m ~ring:0 (Merge.Skip 5);
  check merged "skip unblocks" [ (1, "b2") ] (Merge.pop_all m);
  check Alcotest.int "one skipped position passed" 1
    (Merge.turn m - Merge.emitted m)

(* Skip credits must not let later-pushed items jump unconsumed
   credit: units are consumed in queue position. *)
let test_merge_skip_queue_position () =
  let m = Merge.create ~rings:2 in
  Merge.push m ~ring:0 (Merge.Skip 3);
  Merge.push m ~ring:1 (Merge.Item "b1");
  check merged "b1 emits through the skip" [ (1, "b1") ] (Merge.pop_all m);
  (* An item pushed on ring 0 now queues *behind* the skip's remaining
     units — ring 1 still owns the next turns the skip ceded. *)
  Merge.push m ~ring:0 (Merge.Item "a1");
  Merge.push m ~ring:1 (Merge.Item "b2");
  check merged "remaining credit still cedes to ring 1" [ (1, "b2") ]
    (Merge.pop_all m);
  Merge.push m ~ring:1 (Merge.Skip 1_000);
  check merged "a1 emits after the credit runs out" [ (0, "a1") ]
    (Merge.pop_all m)

(* ---------------- merge: lanes against a queue model ---------------- *)

(* The merge as it was built on [Queue]: one cell per input, a skip's
   remaining units held beside the queue. Kept here only to pin the lane
   implementation to the same outputs and counters. *)
module Queue_model = struct
  type 'a cell = C_item of 'a | C_skip of int

  type 'a t = {
    queues : 'a cell Queue.t array;
    front_credit : int array;
    items : int array;
    credits : int array;  (* including the front's remaining units *)
    mutable cursor : int;
    mutable emitted : int;
    mutable credits_spent : int;
  }

  let create rings =
    {
      queues = Array.init rings (fun _ -> Queue.create ());
      front_credit = Array.make rings 0;
      items = Array.make rings 0;
      credits = Array.make rings 0;
      cursor = 0;
      emitted = 0;
      credits_spent = 0;
    }

  let push t r = function
    | Merge.Item x ->
        Queue.push (C_item x) t.queues.(r);
        t.items.(r) <- t.items.(r) + 1
    | Merge.Skip k ->
        if k > 0 then begin
          Queue.push (C_skip k) t.queues.(r);
          t.credits.(r) <- t.credits.(r) + k
        end

  let spend t r =
    t.credits.(r) <- t.credits.(r) - 1;
    t.credits_spent <- t.credits_spent + 1;
    t.cursor <- (r + 1) mod Array.length t.queues

  let rec visit t =
    let r = t.cursor in
    if t.front_credit.(r) > 0 then begin
      t.front_credit.(r) <- t.front_credit.(r) - 1;
      spend t r;
      visit t
    end
    else
      match Queue.take_opt t.queues.(r) with
      | Some (C_skip k) ->
          t.front_credit.(r) <- k - 1;
          spend t r;
          visit t
      | Some (C_item x) ->
          t.items.(r) <- t.items.(r) - 1;
          t.cursor <- (r + 1) mod Array.length t.queues;
          t.emitted <- t.emitted + 1;
          Some (r, x)
      | None -> None

  let pop t = if Array.for_all (( = ) 0) t.items then None else visit t
end

type merge_step = Push of int * [ `Item | `Skip of int ] | Drain | Pop_all

(* Long runs of pushes (a silent ring lets the others pile up past a
   lane's 16 initial cells while their heads have moved), skips of every
   sign, and both ways to take output. *)
let gen_merge_steps =
  QCheck.Gen.(
    let* rings = int_range 1 4 in
    let push =
      let* r = int_bound (rings - 1) in
      let+ input =
        frequency [ (4, return `Item); (1, map (fun k -> `Skip k) (int_range (-2) 6)) ]
      in
      Push (r, input)
    in
    let+ steps =
      list_size (int_range 0 400)
        (frequency
           [ (24, push); (1, return Drain); (1, return Pop_all) ])
    in
    (rings, steps))

let arb_merge_steps =
  QCheck.make
    ~print:(fun (rings, steps) ->
      Printf.sprintf "rings=%d [%s]" rings
        (String.concat " "
           (List.map
              (function
                | Push (r, `Item) -> Printf.sprintf "I%d" r
                | Push (r, `Skip k) -> Printf.sprintf "S%d:%d" r k
                | Drain -> "D"
                | Pop_all -> "A")
              steps)))
    gen_merge_steps

let rec model_pop_all m =
  match Queue_model.pop m with None -> [] | Some e -> e :: model_pop_all m

let stamp_of x = (x * 7) + 1

let prop_merge_matches_queue_model =
  QCheck.Test.make ~name:"merge lanes match the queue model" ~count:500
    arb_merge_steps (fun (rings, steps) ->
      let m = Merge.create ~rings and q = Queue_model.create rings in
      let next = ref 0 in
      (* A ring's unspent skip units: its known positions that no turn
         has passed and no item holds. *)
      let unspent r =
        let passed = (Merge.turn m + rings - 1 - r) / rings in
        Merge.position m ~ring:r - passed - Merge.pending m ~ring:r
      in
      let same_counters () =
        Merge.emitted m = q.emitted
        && Merge.turn m - Merge.emitted m = q.credits_spent
        && List.for_all
             (fun r ->
               Merge.pending m ~ring:r = q.items.(r)
               && unspent r = q.credits.(r))
             (List.init rings Fun.id)
      in
      List.for_all
        (fun step ->
          let same_output =
            match step with
            | Push (ring, `Item) ->
                incr next;
                Merge.push_item m ~ring ~stamp:(stamp_of !next) !next;
                Queue_model.push q ring (Merge.Item !next);
                true
            | Push (ring, `Skip k) ->
                Merge.push m ~ring (Merge.Skip k);
                Queue_model.push q ring (Merge.Skip k);
                true
            | Drain ->
                (* Each item leaves with the stamp it was pushed with. *)
                let out = ref [] and stamped = ref true in
                Merge.drain m (fun r s x ->
                    stamped := !stamped && s = stamp_of x;
                    out := (r, x) :: !out);
                !stamped && List.rev !out = model_pop_all q
            | Pop_all -> Merge.pop_all m = model_pop_all q
          in
          same_output && same_counters ())
        (steps @ [ Drain ]))

(* Push [n] fresh boxed items round-robin over the rings, recording each
   in [w]; nothing here outlives the call but the merge's own cells. *)
let[@inline never] push_tracked m w n =
  for i = 0 to n - 1 do
    let x = ref i in
    Weak.set w i (Some x);
    Merge.push_item m ~ring:(i mod Merge.rings m) ~stamp:i x;
    if i mod 1_000 = 999 then Merge.drain m (fun _ _ _ -> ())
  done

(* A taken slot keeps nothing alive: every drained item is collectable
   while the merge itself is still live. *)
let test_merge_drained_items_collectable () =
  let n = 10_000 in
  let m = Merge.create ~rings:4 and w = Weak.create n in
  push_tracked m w n;
  Merge.drain m (fun _ _ _ -> ());
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr alive
  done;
  check Alcotest.int "items emitted" n (Merge.emitted m);
  check Alcotest.int "items still reachable after drain" 0 !alive

(* Once the lanes have grown, steady-state push + drain allocates
   nothing per item. *)
let test_merge_push_drain_allocation_free () =
  let rings = 4 in
  let m = Merge.create ~rings in
  let items = Array.init rings (fun r -> ref r) in
  let seen = ref 0 in
  let f _ _ _ = incr seen in
  let burst () =
    for _ = 1 to 8 do
      for ring = 0 to rings - 1 do
        Merge.push_item m ~ring ~stamp:ring items.(ring)
      done
    done;
    Merge.drain m f
  in
  for _ = 1 to 100 do
    burst ()
  done;
  let bursts = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to bursts do
    burst ()
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "items emitted" ((100 + bursts) * 8 * rings) !seen;
  check Alcotest.int "words allocated by 320k items pushed and drained" 0
    (int_of_float words)

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
  Cluster.on_merged cluster (fun ~node ~ring ~index ~op:_ ~applied_at:_ ->
      streams.(node) <- (ring, index) :: streams.(node));
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

let skips cluster ~ring =
  List.init (Cluster.nodes cluster) (fun node ->
      (Kv.stats (Cluster.kv cluster ~ring ~node)).Kv.skips)

(* One ring's merge is the identity, so [Cluster.create ~rings:1] runs
   no skip generators: an idle cluster delivers no skip at any replica.
   At two rings grants come from positions, and an idle cluster's rings
   all stand at the frontier, so it sends no skip either. *)
let test_one_ring_no_skips () =
  let idle ~rings =
    let cluster = Cluster.create ~rings ~nodes:3 ~seed:5L () in
    Netsim.run_until (Cluster.sim cluster) (ms 50);
    cluster
  in
  check (Alcotest.list Alcotest.int) "1 ring: replica skips" [ 0; 0; 0 ]
    (skips (idle ~rings:1) ~ring:0);
  let two = idle ~rings:2 in
  List.iter
    (fun ring ->
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "idle 2 rings: ring %d replica skips" ring)
        [ 0; 0; 0 ] (skips two ~ring))
    [ 0; 1 ]

(* Writes on ring 0 only: ring 1 falls behind the frontier, gets one
   grant up to it, and every learner merges ring 0's writes. Ring 0, at
   the frontier, is granted nothing. *)
let test_grant_up_to_frontier () =
  let cluster = Cluster.create ~rings:2 ~nodes:3 ~seed:5L () in
  let sim = Cluster.sim cluster in
  let merged = Array.make 3 0 in
  Cluster.on_merged cluster (fun ~node ~ring:_ ~index:_ ~op:_ ~applied_at:_ ->
      merged.(node) <- merged.(node) + 1);
  let buckets = keys_per_ring cluster ~count:5 in
  Netsim.call_at sim ~at:(ms 30) (fun () ->
      List.iter
        (fun k -> Cluster.put cluster ~node:0 ~key:k ~value:"v")
        buckets.(0));
  Netsim.run_until sim (ms 100);
  let applied ring =
    List.init 3 (fun node -> Kv.applied (Cluster.kv cluster ~ring ~node))
  in
  check (Alcotest.list Alcotest.int) "ring 0 applied" [ 5; 5; 5 ] (applied 0);
  check (Alcotest.list Alcotest.int) "ring 1 moved to the frontier"
    [ 5; 5; 5 ] (applied 1);
  check (Alcotest.list Alcotest.int) "ring 1: one grant" [ 1; 1; 1 ]
    (skips cluster ~ring:1);
  check (Alcotest.list Alcotest.int) "ring 0: none" [ 0; 0; 0 ]
    (skips cluster ~ring:0);
  check (Alcotest.array Alcotest.int) "every learner merged the writes"
    [| 5; 5; 5 |] merged;
  check Alcotest.bool "merge settled" true (Cluster.merge_settled cluster)

(* Ring 1 cut at nodes 3 and 4 (a minority of five): their ring-1
   replicas reject the skips their designated member sends, so their
   merges freeze with ring 0's writes pending. After the heal each
   installs a snapshot, the learner seeks to it, and the merge drains. *)
let test_minority_learner_drains_after_heal () =
  let nodes = 5 in
  let cluster = Cluster.create ~rings:2 ~nodes ~seed:11L () in
  let sim = Cluster.sim cluster in
  let island p =
    p = Cluster.pid cluster ~ring:1 ~node:3 || p = Cluster.pid cluster ~ring:1 ~node:4
  in
  Netsim.set_drop_until sim ~until:(ms 300) (fun ~src ~dst _ ->
      Netsim.now sim >= ms 40 && island src <> island dst);
  let buckets = keys_per_ring cluster ~count:6 in
  List.iteri
    (fun i k ->
      Netsim.call_at sim ~at:(ms (150 + (10 * i))) (fun () ->
          Cluster.put cluster ~node:0 ~key:k ~value:"v"))
    (buckets.(0) @ buckets.(1));
  Netsim.run_until sim (ms 280);
  let pending node ring = Merge.pending (Cluster.merge cluster ~node) ~ring in
  check Alcotest.bool "the minority learner is frozen with items pending" true
    (pending 3 0 > 0);
  check Alcotest.int "the majority learner is not" 0 (pending 0 0);
  drive cluster ~deadline:(ms 3_000) ~settle_after:(ms 320);
  check Alcotest.bool "island installed" true
    ((Kv.stats (Cluster.kv cluster ~ring:1 ~node:3)).Kv.installs >= 1);
  List.iter
    (fun node ->
      List.iter
        (fun ring ->
          check Alcotest.int
            (Printf.sprintf "node %d ring %d drained" node ring)
            0 (pending node ring))
        [ 0; 1 ])
    (List.init nodes Fun.id);
  check Alcotest.bool "kv converged" true (Cluster.kv_converged cluster);
  Cluster.check_convergence cluster;
  check Alcotest.int "no oracle violations" 0 (Cluster.oracle_violations cluster)

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

(* Ticks of one termination loop within [window] ns of its arming, on
   the documented schedule: 8 ms, then doubling intervals up to 64 ms. *)
let loop_ticks window =
  let rec go at interval n =
    if at > window then n
    else
      let interval = min (2 * interval) (ms 64) in
      go (at + interval) interval (n + 1)
  in
  go (ms 8) (ms 8) 0

(* Ring 1 is cut into singletons for 500 ms from just before an mcas is
   submitted: no ring-1 copy can be ordered, so the op stays undecided
   at every node for the whole window while ring 0's voters see it. Each
   node runs one loop for it, so the retries over the window are at most
   one loop's ticks per node; the op decides once ring 1 heals. *)
let test_mcas_retries_back_off () =
  let nodes = 3 in
  let cluster = Cluster.create ~rings:2 ~nodes ~seed:31L () in
  let sim = Cluster.sim cluster in
  let buckets = keys_per_ring cluster ~count:1 in
  let k0 = List.hd buckets.(0) and k1 = List.hd buckets.(1) in
  Netsim.call_at sim ~at:(ms 30) (fun () ->
      Cluster.put cluster ~node:0 ~key:k0 ~value:"r0";
      Cluster.put cluster ~node:0 ~key:k1 ~value:"s0");
  let submit_at = ms 160 and heal_at = ms 660 in
  let ring1 p = p >= nodes in
  Netsim.call_at sim ~at:(ms 150) (fun () ->
      Netsim.set_drop_until sim ~until:heal_at (fun ~src ~dst _ ->
          src <> dst && ring1 src && ring1 dst));
  Netsim.call_at sim ~at:submit_at (fun () ->
      Cluster.mcas cluster ~node:0 ~id:"m-backoff"
        ~checks:[ (k0, Some "r0"); (k1, Some "s0") ]
        ~writes:[ (k0, "r1"); (k1, "s1") ]);
  let blocked = ref true and retries = ref 0 in
  Netsim.call_at sim ~at:heal_at (fun () ->
      blocked :=
        not
          (List.exists
             (fun node -> Cluster.mcas_decided_at cluster ~node "m-backoff")
             (List.init nodes Fun.id));
      retries := Cluster.mcas_retries cluster);
  drive cluster ~deadline:(ms 5_000) ~settle_after:(ms 800);
  check Alcotest.bool "undecided while ring 1 is cut" true !blocked;
  let ticks = loop_ticks (heal_at - submit_at) in
  if !retries < ticks || !retries > nodes * ticks then
    Alcotest.failf "%d retries over the window; one loop per node allows %d..%d"
      !retries ticks (nodes * ticks);
  List.iter
    (fun node ->
      check Alcotest.bool
        (Printf.sprintf "decided at node %d after the heal" node)
        true
        (Cluster.mcas_decided_at cluster ~node "m-backoff"))
    (List.init nodes Fun.id);
  check Alcotest.bool "converged" true (Cluster.kv_converged cluster);
  Cluster.check_convergence cluster;
  check Alcotest.int "no oracle violations" 0
    (Cluster.oracle_violations cluster)

(* One ring 100x slower than the other: the merge must stay live (skips
   from the slow ring keep fast-ring items emerging) and the skew must
   not break mcas atomicity. *)
let test_mcas_slow_ring_skew () =
  let cluster = Cluster.create ~rings:2 ~nodes:3 ~seed:23L () in
  let sim = Cluster.sim cluster in
  (* Ring 1's hops at 100x the 40 us one-way latency of ring 0's: a
     latency class per ring (ring r's nodes are pids 3r to 3r + 2). *)
  Netsim.set_latency_classes sim
    ~classes:(Array.init 6 (fun p -> p / 3))
    ~matrix:[| [| 0; 0 |]; [| 0; 99 * 40_000 |] |];
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
  check Alcotest.int "no oracle violations" 0 r.Load.oracle_violations;
  check Alcotest.bool "converged" true r.Load.converged;
  check Alcotest.bool "merged traffic" true (r.Load.merged_total > 0);
  check Alcotest.bool "both rings carried load" true
    (Array.for_all (fun c -> c > 0) r.Load.per_ring_applied);
  check Alcotest.bool "mcas committed" true (r.Load.mcas_commits > 0);
  check Alcotest.bool "write latency measured" true
    (Stats.count r.Load.write_latency_us > 0);
  check Alcotest.int "queue drained" 0 r.Load.queue_depth_end

let test_mload_deterministic () =
  let a = Mload.run mload_spec and b = Mload.run mload_spec in
  check Alcotest.int "offered equal" a.Load.ops_offered b.Load.ops_offered;
  check Alcotest.int "merged equal" a.Load.merged_total b.Load.merged_total;
  check Alcotest.int "mcas commits equal" a.Load.mcas_commits
    b.Load.mcas_commits;
  check Alcotest.int "end time equal" a.Load.end_ns b.Load.end_ns

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
  check Alcotest.int "no oracle violations" 0 r.Load.oracle_violations;
  check Alcotest.bool "converged" true r.Load.converged;
  check Alcotest.bool "every storm session back" true
    r.Load.storm_all_reconnected;
  check Alcotest.bool "reconnects" true (r.Load.reconnects > 0);
  check Alcotest.bool "merged traffic" true (r.Load.merged_total > 0)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    qtest prop_merge_deterministic;
    qtest prop_merge_fifo_complete;
    qtest prop_merge_single_ring_identity;
    qtest prop_merge_seek_same_suffix;
    ("merge blocks on silent ring", `Quick, test_merge_blocks_on_silent_ring);
    ("merge skips keep queue position", `Quick, test_merge_skip_queue_position);
    qtest prop_merge_matches_queue_model;
    ( "merge keeps no drained item alive",
      `Quick,
      test_merge_drained_items_collectable );
    ( "merge push and drain allocate nothing",
      `Quick,
      test_merge_push_drain_allocation_free );
    ("cluster smoke: identical merged streams", `Quick, test_cluster_smoke);
    ("one ring gets no skip generators", `Quick, test_one_ring_no_skips);
    ("a ring behind the frontier gets one grant", `Quick, test_grant_up_to_frontier);
    ( "a minority learner drains after the heal",
      `Quick,
      test_minority_learner_drains_after_heal );
    ("mcas commit and abort", `Quick, test_cluster_mcas_commit_and_abort);
    ("mcas vs partition of one ring", `Quick, test_mcas_partition_one_ring);
    ( "mcas vs membership change between writes",
      `Quick,
      test_mcas_membership_change_between_writes );
    ("mcas vs 100x ring skew", `Quick, test_mcas_slow_ring_skew);
    ("mcas retries back off while undecided", `Quick, test_mcas_retries_back_off);
    ("mload smoke", `Quick, test_mload_smoke);
    ("mload deterministic", `Quick, test_mload_deterministic);
    ("dispatch guards", `Quick, test_dispatch_guards);
    ( "mload churn, storm, slow receivers and partition",
      `Quick,
      test_mload_sessions_dimensions );
  ]
