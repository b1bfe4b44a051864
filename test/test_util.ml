(* Unit and property tests for the utility substrate. *)

module Event_heap = Aring_util.Event_heap
module Deque = Aring_util.Deque
module Stats = Aring_util.Stats
module Prng = Aring_util.Prng
module Fnv = Aring_util.Fnv
module Bytes_ring = Aring_util.Bytes_ring

let check = Alcotest.check

(* -------------------------------------------------------------------- *)
(* Event heap                                                            *)

(* Add every [at] of [ats] in order, each with its index as seq. *)
let heap_of ats =
  let h = Event_heap.create () in
  List.iteri (fun seq at -> ignore (Event_heap.add h ~at ~seq)) ats;
  h

(* Pop everything, as the (at, seq) keys in pop order. *)
let drain_keys h =
  let rec loop acc =
    if Event_heap.is_empty h then List.rev acc
    else begin
      let key = (Event_heap.top_at h, Event_heap.top_seq h) in
      ignore (Event_heap.pop_exn h);
      loop (key :: acc)
    end
  in
  loop []

let key = Alcotest.(pair int int)

let test_heap_basic () =
  let h = Event_heap.create () in
  check Alcotest.bool "empty" true (Event_heap.is_empty h);
  let h5 = Event_heap.add h ~at:5 ~seq:0 in
  let h1 = Event_heap.add h ~at:1 ~seq:1 in
  let h3 = Event_heap.add h ~at:3 ~seq:2 in
  check Alcotest.int "top is the min" h1 (Event_heap.top_exn h);
  check Alcotest.int "top at" 1 (Event_heap.top_at h);
  check Alcotest.int "length" 3 (Event_heap.length h);
  check Alcotest.int "pop 1" h1 (Event_heap.pop_exn h);
  check Alcotest.int "pop 3" h3 (Event_heap.pop_exn h);
  check Alcotest.int "pop 5" h5 (Event_heap.pop_exn h);
  check Alcotest.bool "empty again" true (Event_heap.is_empty h);
  check Alcotest.int "a popped handle is handed out again" h5
    (Event_heap.add h ~at:0 ~seq:3)

let test_heap_pop_exn_empty () =
  let h = Event_heap.create () in
  Alcotest.check_raises "pop_exn on empty"
    (Invalid_argument "Event_heap.pop_exn: empty heap") (fun () ->
      ignore (Event_heap.pop_exn h));
  let p = Event_heap.add h ~at:1 ~seq:0 in
  ignore (Event_heap.pop_exn h);
  Alcotest.check_raises "rekey of a popped handle"
    (Invalid_argument "Event_heap.rekey: handle not pending") (fun () ->
      Event_heap.rekey h p ~at:2 ~seq:1);
  Alcotest.check_raises "remove of a popped handle"
    (Invalid_argument "Event_heap.remove: handle not pending") (fun () ->
      Event_heap.remove h p)

let test_heap_top_exn () =
  let h = Event_heap.create () in
  Alcotest.check_raises "top_exn on empty"
    (Invalid_argument "Event_heap.top_exn: empty heap") (fun () ->
      ignore (Event_heap.top_exn h));
  let _ = Event_heap.add h ~at:4 ~seq:0 in
  let two = Event_heap.add h ~at:2 ~seq:1 in
  let _ = Event_heap.add h ~at:9 ~seq:2 in
  check Alcotest.int "top is min" two (Event_heap.top_exn h);
  check Alcotest.int "top removes nothing" 3 (Event_heap.length h);
  check Alcotest.int "pop agrees with top" two (Event_heap.pop_exn h)

let test_heap_handles_below_capacity () =
  (* Adds that grow the arrays keep every handle below the capacity, and
     the capacity never shrinks. *)
  let h = Event_heap.create () in
  let cap = ref (Event_heap.capacity h) in
  for i = 100 downto 1 do
    let handle = Event_heap.add h ~at:i ~seq:(100 - i) in
    let c = Event_heap.capacity h in
    check Alcotest.bool "handle below capacity" true (handle < c);
    check Alcotest.bool "capacity never shrinks" true (c >= !cap);
    cap := c
  done;
  check Alcotest.int "all added" 100 (Event_heap.length h);
  check Alcotest.int "min" 1 (Event_heap.top_at h)

let test_heap_growth_duplicates () =
  (* Add far past the 16-slot seed arrays, with heavy duplication of
     [at]: the drain is sorted by at, ties in seq order. *)
  let ats = List.init 500 (fun i -> i mod 50) in
  let h = heap_of ats in
  check Alcotest.int "length" 500 (Event_heap.length h);
  let expected = List.sort compare (List.mapi (fun seq at -> (at, seq)) ats) in
  check (Alcotest.list key) "sorted by (at, seq)" expected (drain_keys h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:300
    QCheck.(list small_int)
    (fun ats ->
      drain_keys (heap_of ats)
      = List.sort compare (List.mapi (fun seq at -> (at, seq)) ats))

(* The model of a heap: its pending (at, seq, handle) entries. *)
let model_min model =
  List.fold_left
    (fun best ((at, seq, _) as e) ->
      match best with
      | Some (bat, bseq, _) when (bat, bseq) <= (at, seq) -> best
      | _ -> Some e)
    None model

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap min correct under interleaved push/pop"
    ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Event_heap.create () in
      let model = ref [] in
      let next = ref 0 in
      List.for_all
        (fun (is_push, at) ->
          if is_push then begin
            incr next;
            let seq = !next in
            let handle = Event_heap.add h ~at ~seq in
            model := (at, seq, handle) :: !model;
            true
          end
          else
            match model_min !model with
            | None -> Event_heap.is_empty h
            | Some ((_, _, handle) as m) ->
                model := List.filter (fun e -> e <> m) !model;
                Event_heap.pop_exn h = handle)
        ops)

let prop_heap_drain_sorted_after_churn =
  (* The heap-property invariant, observed externally: after any random
     push/pop interleaving (crossing growth boundaries), draining yields
     the surviving keys in sorted order. *)
  QCheck.Test.make ~name:"heap drains sorted after random interleavings"
    ~count:300
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Event_heap.create () in
      let model = ref [] in
      List.iteri
        (fun seq (is_push, at) ->
          if is_push then begin
            ignore (Event_heap.add h ~at ~seq);
            model := (at, seq) :: !model
          end
          else if not (Event_heap.is_empty h) then begin
            let k = (Event_heap.top_at h, Event_heap.top_seq h) in
            ignore (Event_heap.pop_exn h);
            model := List.filter (fun e -> e <> k) !model
          end)
        ops;
      drain_keys h = List.sort compare !model)

(* Random add/pop/rekey/remove sequences against a sorted (at, seq)
   list. [at] is drawn from 0..4, so ties on [at] are the rule, broken by
   a seq drawn fresh per add or rekey, as the runtimes draw it; a rekey
   moves a random pending entry earlier or later, and a remove takes a
   random pending entry out, drawing no seq. *)
let prop_heap_rekey_model =
  QCheck.Test.make ~name:"heap add/pop/rekey match a sorted model"
    ~count:500
    QCheck.(list (triple (int_bound 3) small_nat (int_bound 4)))
    (fun ops ->
      let h = Event_heap.create () in
      let model = ref [] in
      let next = ref 0 in
      let fresh () =
        incr next;
        !next
      in
      List.for_all
        (fun (op, pick, at) ->
          match (op, !model) with
          | 0, _ ->
              let seq = fresh () in
              let handle = Event_heap.add h ~at ~seq in
              model := (at, seq, handle) :: !model;
              true
          | 1, [] -> Event_heap.is_empty h
          | 1, _ ->
              let ((_, _, handle) as m) = Option.get (model_min !model) in
              model := List.filter (fun e -> e <> m) !model;
              Event_heap.pop_exn h = handle
          | _, [] -> true
          | 2, entries ->
              let ((_, _, handle) as m) =
                List.nth entries (pick mod List.length entries)
              in
              let seq = fresh () in
              Event_heap.rekey h handle ~at ~seq;
              model :=
                (at, seq, handle) :: List.filter (fun e -> e <> m) !model;
              Event_heap.length h = List.length !model
          | _, entries ->
              let ((_, _, handle) as m) =
                List.nth entries (pick mod List.length entries)
              in
              Event_heap.remove h handle;
              model := List.filter (fun e -> e <> m) !model;
              Event_heap.length h = List.length !model)
        ops
      && drain_keys h
         = List.sort compare (List.map (fun (at, seq, _) -> (at, seq)) !model))

(* -------------------------------------------------------------------- *)
(* Deque                                                                 *)

(* Pop everything, front to back. *)
let drain_deque d =
  let rec loop acc =
    match Deque.pop_front d with None -> List.rev acc | Some x -> loop (x :: acc)
  in
  loop []

let test_deque_basic () =
  let d = Deque.create () in
  check Alcotest.bool "empty" true (Deque.is_empty d);
  check (Alcotest.option Alcotest.int) "pop empty" None (Deque.pop_front d);
  Deque.push_back d 0;
  Deque.push_back d 1;
  Deque.push_back d 2;
  check Alcotest.bool "not empty" false (Deque.is_empty d);
  check (Alcotest.option Alcotest.int) "pop front" (Some 0) (Deque.pop_front d);
  check (Alcotest.list Alcotest.int) "rest in order" [ 1; 2 ] (drain_deque d);
  check Alcotest.bool "empty again" true (Deque.is_empty d)

let test_deque_wraparound () =
  let d = Deque.create () in
  (* Force the circular buffer to wrap repeatedly. *)
  for i = 1 to 1000 do
    Deque.push_back d i;
    if i mod 3 = 0 then ignore (Deque.pop_front d)
  done;
  let rest = drain_deque d in
  check Alcotest.int "length after churn" (1000 - (1000 / 3)) (List.length rest);
  check (Alcotest.list Alcotest.int) "the last pushes, in order"
    (List.init (List.length rest) (fun i -> 1000 - List.length rest + 1 + i))
    rest

(* Push a fresh block watched by a weak slot; the test keeps no other
   reference to it. *)
let push_watched d w i push =
  let x = Bytes.make 64 (Char.chr (65 + i)) in
  Weak.set w i (Some x);
  push d x

let collected w i = Option.is_none (Weak.get w i)

let test_deque_releases_elements () =
  let d = Deque.create () and w = Weak.create 8 in
  (* Popped while another remains, and popped until empty. *)
  push_watched d w 0 Deque.push_back;
  push_watched d w 1 Deque.push_back;
  ignore (Sys.opaque_identity (Deque.pop_front d));
  Gc.full_major ();
  check Alcotest.bool "popped front collected" true (collected w 0);
  check Alcotest.bool "remaining element kept" false (collected w 1);
  ignore (Sys.opaque_identity (Deque.pop_front d));
  Gc.full_major ();
  check Alcotest.bool "last popped collected" true (collected w 1);
  (* Popped until empty after the buffer has grown and wrapped. *)
  for i = 1 to 40 do
    Deque.push_back d (Bytes.create 8);
    if i mod 2 = 0 then ignore (Deque.pop_front d)
  done;
  for i = 3 to 7 do
    push_watched d w i Deque.push_back
  done;
  ignore (Sys.opaque_identity (drain_deque d));
  Gc.full_major ();
  for i = 3 to 7 do
    check Alcotest.bool (Printf.sprintf "drained element %d collected" i) true
      (collected w i)
  done;
  check Alcotest.bool "empty after draining" true (Deque.is_empty d)

type deque_op = Push_back of int | Pop_front

let deque_op_gen =
  QCheck.Gen.(
    oneof [ map (fun x -> Push_back x) small_int; return Pop_front ])

let deque_op_print = function
  | Push_back x -> Printf.sprintf "Push_back %d" x
  | Pop_front -> "Pop_front"

let prop_deque_model =
  QCheck.Test.make ~name:"deque agrees with list model" ~count:300
    (QCheck.make
       QCheck.Gen.(list deque_op_gen)
       ~print:(fun ops -> String.concat "; " (List.map deque_op_print ops)))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Push_back x ->
              Deque.push_back d x;
              model := !model @ [ x ];
              true
          | Pop_front -> (
              match (Deque.pop_front d, !model) with
              | None, [] -> true
              | Some y, m :: rest ->
                  model := rest;
                  y = m
              | None, _ :: _ | Some _, [] -> false))
        ops
      && Deque.is_empty d = (!model = [])
      && drain_deque d = !model)

(* -------------------------------------------------------------------- *)
(* Stats                                                                 *)

let test_stats_basic () =
  let s = Stats.create () in
  check Alcotest.int "count empty" 0 (Stats.count s);
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check Alcotest.int "count" 5 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "p0 is the min" 1.0 (Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.max_value s);
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.median s);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile s 100.0);
  check (Alcotest.float 1e-9) "p20" 1.0 (Stats.percentile s 20.0);
  (* Over the samples 1..n the nearest rank of p is p/100 * n itself
     whenever that is whole, p99.9 included. *)
  List.iter
    (fun n ->
      let s = Stats.create () in
      for i = 1 to n do
        Stats.add s (float_of_int i)
      done;
      List.iter
        (fun (p, rank) ->
          check (Alcotest.float 1e-9)
            (Printf.sprintf "p%g of 1..%d" p n)
            (float_of_int rank) (Stats.percentile s p))
        [ (50.0, n / 2); (99.0, n * 99 / 100); (99.9, n * 999 / 1000) ])
    [ 1_000; 2_000; 3_000; 10_000 ]

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0 ];
  let m = Stats.merge a b in
  check Alcotest.int "merged count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 2.5 (Stats.mean m)

let test_stats_add_after_percentile () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 3.0; 1.0 ];
  check (Alcotest.float 1e-9) "median sorts" 1.0 (Stats.percentile s 50.0);
  Stats.add s 0.5;
  check (Alcotest.float 1e-9) "resorts after add" 1.0 (Stats.median s)

let nonempty_floats =
  QCheck.(list_of_size Gen.(1 -- 80) (float_bound_exclusive 1000.))

let stats_of xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

let prop_stats_percentile_endpoints =
  QCheck.Test.make ~name:"p0 is min and p100 is max" ~count:300 nonempty_floats
    (fun xs ->
      let s = stats_of xs in
      Stats.percentile s 0.0 = List.fold_left Float.min infinity xs
      && Stats.percentile s 100.0 = Stats.max_value s)

let prop_stats_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:300
    QCheck.(
      triple nonempty_floats (float_bound_inclusive 100.)
        (float_bound_inclusive 100.))
    (fun (xs, p, q) ->
      let s = stats_of xs in
      let p, q = if p <= q then (p, q) else (q, p) in
      Stats.percentile s p <= Stats.percentile s q)

let prop_stats_merge_preserves =
  QCheck.Test.make ~name:"merge preserves count, lo and hi" ~count:300
    QCheck.(pair nonempty_floats nonempty_floats)
    (fun (xs, ys) ->
      let a = stats_of xs and b = stats_of ys in
      let m = Stats.merge a b in
      Stats.count m = Stats.count a + Stats.count b
      && Stats.percentile m 0.0
         = Float.min (Stats.percentile a 0.0) (Stats.percentile b 0.0)
      && Stats.max_value m = Float.max (Stats.max_value a) (Stats.max_value b))

let prop_stats_percentile_bounds =
  QCheck.Test.make ~name:"percentiles lie within [min,max]" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
              (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let v = Stats.percentile s p in
      v >= List.fold_left Float.min infinity xs && v <= Stats.max_value s)

(* -------------------------------------------------------------------- *)
(* Prng                                                                  *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L and b = Prng.create ~seed:7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let prop_prng_int_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let p = Prng.create ~seed in
      let x = Prng.int p bound in
      x >= 0 && x < bound)

let prop_prng_int_bounds_extreme =
  (* Bounds near max_int are where rejection sampling actually matters. *)
  QCheck.Test.make ~name:"Prng.int stays in bounds for extreme bounds"
    ~count:200
    QCheck.(
      pair int64
        (oneofl
           [ 1; 2; 3; 7; 1 lsl 61; (1 lsl 61) + 1; 3 * (1 lsl 60); max_int - 1; max_int ]))
    (fun (seed, bound) ->
      let p = Prng.create ~seed in
      List.for_all
        (fun x -> x >= 0 && x < bound)
        (List.init 50 (fun _ -> Prng.int p bound)))

let prop_prng_int_unbiased_high_bound =
  (* With bound = 3·2^60, 2^62 mod bound = 2^60: the pre-rejection-sampling
     [r mod bound] put probability 1/2 (instead of 1/3) on [0, 2^60). A few
     thousand draws separate the two decisively. *)
  QCheck.Test.make ~name:"Prng.int is unbiased near max_int" ~count:20
    QCheck.int64
    (fun seed ->
      let p = Prng.create ~seed in
      let bound = 3 * (1 lsl 60) in
      let n = 3000 in
      let low = ref 0 in
      for _ = 1 to n do
        if Prng.int p bound < 1 lsl 60 then incr low
      done;
      let f = float_of_int !low /. float_of_int n in
      f > 0.26 && f < 0.41)

let prop_prng_int_uniform_small_bound =
  (* Chi-square-lite: every residue of a small bound drawn ~1000 times
     stays within 20% of expectation. *)
  QCheck.Test.make ~name:"Prng.int roughly uniform for small bounds" ~count:20
    QCheck.(pair int64 (int_range 2 20))
    (fun (seed, bound) ->
      let p = Prng.create ~seed in
      let per_bucket = 1000 in
      let n = bound * per_bucket in
      let counts = Array.make bound 0 in
      for _ = 1 to n do
        let x = Prng.int p bound in
        counts.(x) <- counts.(x) + 1
      done;
      Array.for_all
        (fun c -> abs (c - per_bucket) < per_bucket / 5)
        counts)

let test_prng_bernoulli_extremes () =
  let p = Prng.create ~seed:11L in
  for _ = 1 to 100 do
    check Alcotest.bool "p=1 always true" true (Prng.bernoulli p 1.0);
    check Alcotest.bool "p=0 always false" false (Prng.bernoulli p 0.0)
  done

let test_prng_exponential_positive () =
  let p = Prng.create ~seed:13L in
  for _ = 1 to 100 do
    check Alcotest.bool "exponential >= 0" true
      (Prng.exponential_int p ~mean:5e6 >= 0)
  done

(* -------------------------------------------------------------------- *)
(* Zipf sampling                                                         *)

let zipf_counts ~seed ~n ~theta ~draws =
  let p = Prng.create ~seed in
  let z = Prng.zipf_table ~n ~theta in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Prng.zipf p z in
    counts.(r) <- counts.(r) + 1
  done;
  counts

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf draws stay in [0, n)" ~count:200
    QCheck.(triple int64 (int_range 1 200) (float_bound_inclusive 2.0))
    (fun (seed, n, theta) ->
      let p = Prng.create ~seed in
      let z = Prng.zipf_table ~n ~theta in
      List.for_all
        (fun x -> x >= 0 && x < n)
        (List.init 100 (fun _ -> Prng.zipf p z)))

let prop_zipf_rank_ordering =
  (* With real skew, empirical frequency must rank with popularity.
     Probe ranks 0, 7 and 63: adjacent probes differ by a true frequency
     factor of 8^theta >= 5.3, so demanding a factor 2 in the sample is
     a wide statistical margin at 20k draws. *)
  QCheck.Test.make ~name:"zipf frequency ranking matches theta ordering"
    ~count:10
    QCheck.(pair int64 (float_range 0.8 1.2))
    (fun (seed, theta) ->
      let n = 64 in
      let counts = zipf_counts ~seed ~n ~theta ~draws:20_000 in
      counts.(0) > 2 * counts.(7) && counts.(7) > 2 * counts.(n - 1))

let prop_zipf_theta_zero_uniform =
  (* theta = 0 must degenerate to the uniform distribution: every rank
     within 20% of expectation, same tolerance as the Prng.int test. *)
  QCheck.Test.make ~name:"zipf theta=0 degenerates to uniform" ~count:10
    QCheck.int64
    (fun seed ->
      let n = 16 in
      let per_bucket = 1000 in
      let counts = zipf_counts ~seed ~n ~theta:0.0 ~draws:(n * per_bucket) in
      Array.for_all (fun c -> abs (c - per_bucket) < per_bucket / 5) counts)

let prop_zipf_seed_deterministic =
  QCheck.Test.make ~name:"zipf draw stream is seed-deterministic" ~count:50
    QCheck.(triple int64 (int_range 1 100) (float_bound_inclusive 1.5))
    (fun (seed, n, theta) ->
      let draw_stream () =
        let p = Prng.create ~seed in
        let z = Prng.zipf_table ~n ~theta in
        List.init 200 (fun _ -> Prng.zipf p z)
      in
      draw_stream () = draw_stream ())

let test_zipf_mass_conservation () =
  (* The alias table must hold the exact target distribution: per-rank
     mass (own probability plus donations via aliases) equals the
     normalized 1/(i+1)^theta weight. *)
  let n = 40 and theta = 0.99 in
  let p = Prng.create ~seed:3L in
  let z = Prng.zipf_table ~n ~theta in
  ignore (Prng.zipf p z);
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  (* Recover the empirical-free mass directly from a big sample. *)
  let draws = 200_000 in
  let counts = zipf_counts ~seed:3L ~n ~theta ~draws in
  Array.iteri
    (fun i c ->
      let expect = w.(i) /. total in
      let got = float_of_int c /. float_of_int draws in
      if Float.abs (got -. expect) > 0.02 then
        Alcotest.failf "rank %d: expected mass %.4f, got %.4f" i expect got)
    counts

let test_zipf_invalid_args () =
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Prng.zipf_table: n must be positive") (fun () ->
      ignore (Prng.zipf_table ~n:0 ~theta:1.0));
  Alcotest.check_raises "negative theta rejected"
    (Invalid_argument "Prng.zipf_table: theta must be >= 0") (fun () ->
      ignore (Prng.zipf_table ~n:4 ~theta:(-0.5)))

(* -------------------------------------------------------------------- *)
(* Reference copies of the boxed implementations                         *)

(* Test-only copies of the FNV-1a fold, the generator and the sample
   accumulator as they were before they stopped allocating: the live
   modules must reproduce them bit for bit, or every digest, shard map,
   workload and pinned trace hash would move. *)

module Ref_fnv = struct
  let string h s =
    let h = ref h in
    String.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
      s;
    !h
end

module Ref_prng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = seed }

  let next_int64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    let rem62 = Int64.to_int (Int64.rem 0x4000_0000_0000_0000L (Int64.of_int bound)) in
    let rec draw () =
      let r = Int64.to_int (Int64.logand (next_int64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
      if rem62 > 0 && r >= Int64.to_int (Int64.sub 0x4000_0000_0000_0000L (Int64.of_int rem62))
      then draw ()
      else r mod bound
    in
    draw ()

  let float t bound =
    let bits = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
    bits /. 9007199254740992.0 *. bound

  let exponential t ~mean =
    let u = float t 1.0 in
    let u = if u <= 0.0 then 1e-12 else u in
    -.mean *. log u

  (* The alias table is unchanged code; the copy pins the draw. *)
  let zipf_table ~n ~theta =
    let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let p = Array.map (fun x -> x /. total *. float_of_int n) w in
    let prob = Array.make n 1.0 in
    let alias = Array.init n (fun i -> i) in
    let small = Stack.create () and large = Stack.create () in
    Array.iteri (fun i x -> if x < 1.0 then Stack.push i small else Stack.push i large) p;
    while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
      let s = Stack.pop small and l = Stack.pop large in
      prob.(s) <- p.(s);
      alias.(s) <- l;
      p.(l) <- p.(l) -. (1.0 -. p.(s));
      if p.(l) < 1.0 then Stack.push l small else Stack.push l large
    done;
    Stack.iter (fun i -> prob.(i) <- 1.0) small;
    Stack.iter (fun i -> prob.(i) <- 1.0) large;
    (n, prob, alias)

  let zipf t (n, prob, alias) =
    let j = int t n in
    let u = float t 1.0 in
    if u < prob.(j) then j else alias.(j)
end

module Ref_stats = struct
  type t = { mutable size : int; mutable sum : float; mutable hi : float }

  let of_list xs =
    let t = { size = 0; sum = 0.0; hi = neg_infinity } in
    List.iter
      (fun x ->
        t.size <- t.size + 1;
        t.sum <- t.sum +. x;
        if x > t.hi then t.hi <- x)
      xs;
    t

  let mean t = if t.size = 0 then nan else t.sum /. float_of_int t.size
  let max_value t = if t.size = 0 then nan else t.hi
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Minor-heap words per call of [f], after a warm-up. A block past the
   minor heap's size limit goes straight to the major heap and is not
   counted: the Stats test relies on that for the sample array. *)
let minor_words_per_call ~n f =
  for _ = 1 to 1_000 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* Once the buffer has grown, a push allocates the [Some] box (two
   words) that its pop hands back, and nothing else. *)
let test_deque_push_pop_allocation () =
  let d = Deque.create () in
  for i = 1 to 64 do
    Deque.push_back d i
  done;
  let words =
    minor_words_per_call ~n:100_000 (fun () ->
        Deque.push_back d 7;
        ignore (Sys.opaque_identity (Deque.pop_front d)))
  in
  check (Alcotest.float 0.01) "words per push + pop" 2.0 words

(* -------------------------------------------------------------------- *)
(* FNV-1a                                                                *)

let test_fnv_vectors () =
  (* The published FNV-1a 64 test vectors. *)
  List.iter
    (fun (s, h) -> check Alcotest.int64 (Printf.sprintf "%S" s) h (Fnv.string Fnv.offset s))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ];
  check Alcotest.int64 "folding is chaining" (Fnv.string Fnv.offset "foobar")
    (Fnv.string (Fnv.string Fnv.offset "foo") "bar")

let prop_fnv_matches_reference =
  QCheck.Test.make ~name:"Fnv.string equals the String.iter fold" ~count:200
    QCheck.(pair int64 (string_of_size Gen.(oneof [ 0 -- 64; 0 -- 65_536 ])))
    (fun (h, s) -> Int64.equal (Fnv.string h s) (Ref_fnv.string h s))

let test_fnv_allocates_nothing_per_byte () =
  (* 1 MiB hashed in 64 KiB strings: the only allocation is the boxed
     result of each call, under a word per KiB. The per-byte closure
     fold allocated 3 words per byte. *)
  let s = String.init 65_536 (fun i -> Char.chr (i land 255)) in
  let words = minor_words_per_call ~n:16 (fun () -> ignore (Fnv.string Fnv.offset s)) in
  check Alcotest.int "words per KiB hashed" 0 (int_of_float (words /. 64.))

(* -------------------------------------------------------------------- *)
(* Prng against the boxed generator                                      *)

type prng_op = Next | Int of int | Exp of float | Zipf of int

let prng_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Next);
        ( 4,
          map
            (fun b -> Int b)
            (oneof [ 1 -- 1_000; oneofl [ 1 lsl 61; (1 lsl 61) + 1; 3 * (1 lsl 60); max_int ] ]) );
        (2, map (fun m -> Exp m) (float_bound_inclusive 1e3));
        (2, map (fun i -> Zipf i) (0 -- 3));
      ])

let prng_op_print = function
  | Next -> "next"
  | Int b -> Printf.sprintf "int %d" b
  | Exp m -> Printf.sprintf "exp %g" m
  | Zipf i -> Printf.sprintf "zipf %d" i

let prop_prng_matches_reference =
  (* The same op sequence on the live and the boxed generator, from one
     seed: every output equal bit for bit. *)
  let tables = [| (1, 0.0); (7, 0.5); (64, 0.99); (1000, 1.2) |] in
  let live_tables = Array.map (fun (n, theta) -> Prng.zipf_table ~n ~theta) tables in
  let ref_tables = Array.map (fun (n, theta) -> Ref_prng.zipf_table ~n ~theta) tables in
  QCheck.Test.make ~name:"Prng streams equal the boxed generator's" ~count:300
    QCheck.(
      pair int64
        (make ~print:(Print.list prng_op_print) Gen.(list_size (1 -- 200) prng_op_gen)))
    (fun (seed, ops) ->
      let live = Prng.create ~seed and boxed = Ref_prng.create ~seed in
      List.for_all
        (fun op ->
          match op with
          | Next -> Int64.equal (Prng.next_int64 live) (Ref_prng.next_int64 boxed)
          | Int b -> Prng.int live b = Ref_prng.int boxed b
          | Exp mean ->
              Prng.exponential_int live ~mean
              = int_of_float (Ref_prng.exponential boxed ~mean)
          | Zipf i -> Prng.zipf live live_tables.(i) = Ref_prng.zipf boxed ref_tables.(i))
        ops)

let test_prng_draws_allocate_nothing () =
  let p = Prng.create ~seed:5L in
  let z = Prng.zipf_table ~n:1000 ~theta:0.99 in
  let n = 100_000 in
  check Alcotest.int "words per Prng.int" 0
    (int_of_float (minor_words_per_call ~n (fun () -> ignore (Prng.int p 1000))));
  check Alcotest.int "words per Prng.int near max_int" 0
    (int_of_float (minor_words_per_call ~n (fun () -> ignore (Prng.int p (3 * (1 lsl 60))))));
  check Alcotest.int "words per Prng.zipf" 0
    (int_of_float (minor_words_per_call ~n (fun () -> ignore (Prng.zipf p z))))

(* -------------------------------------------------------------------- *)
(* Stats against the boxed accumulator                                   *)

let prop_stats_match_reference =
  QCheck.Test.make ~name:"Stats moments equal the boxed accumulator's" ~count:300
    QCheck.(list_of_size Gen.(0 -- 300) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let r = Ref_stats.of_list xs in
      Stats.count s = r.Ref_stats.size
      && same_bits (Stats.mean s) (Ref_stats.mean r)
      && same_bits (Stats.max_value s) (Ref_stats.max_value r))

let test_stats_add_allocation () =
  (* Past 256 samples the sample array grows in the major heap, so the
     minor words measured are [add]'s own: the caller's boxing of the
     sample (2 words) and nothing for the moments. The boxed moments cost
     up to 6 words per add. *)
  let s = Stats.create () in
  let i = ref 0 in
  let words =
    minor_words_per_call ~n:100_000 (fun () ->
        incr i;
        Stats.add s (float_of_int !i))
  in
  check Alcotest.bool (Printf.sprintf "%.2f words per add <= 2" words) true (words <= 2.0)

let qtest = QCheck_alcotest.to_alcotest

(* Bytes_ring against a Queue of pairs: pushes (in bursts, so the ring
   wraps and doubles), pops of the front pair and clears; once grown, a
   push and a pop allocate nothing. *)
let prop_bytes_ring_model =
  QCheck.Test.make ~name:"bytes ring matches a Queue model" ~count:300
    QCheck.(list (pair (int_bound 5) small_nat))
    (fun ops ->
      let q = Bytes_ring.create () and model = Queue.create () in
      List.iter
        (fun (op, n) ->
          match op with
          | 0 | 1 ->
              for i = 1 to 1 + (n mod 20) do
                let b = Bytes.make 1 (Char.chr (i land 255)) in
                Bytes_ring.push q b (n + i);
                Queue.push (b, n + i) model
              done
          | 5 ->
              Bytes_ring.clear q;
              Queue.clear model
          | _ -> (
              match Queue.take_opt model with
              | None ->
                  if not (Bytes_ring.is_empty q) then QCheck.Test.fail_report "not empty";
                  Bytes_ring.drop q
              | Some (b, i) ->
                  if Bytes_ring.front_bytes q != b || Bytes_ring.front_int q <> i then
                    QCheck.Test.fail_report "front pair differs from the model's";
                  Bytes_ring.drop q))
        ops;
      Bytes_ring.length q = Queue.length model
      &&
      let b = Bytes.empty in
      Bytes_ring.push q b 0;
      let before = Gc.minor_words () in
      for i = 1 to 100 do
        ignore (Sys.opaque_identity (Bytes_ring.front_int q));
        Bytes_ring.drop q;
        Bytes_ring.push q b i
      done;
      Gc.minor_words () -. before < 1. && Bytes_ring.length q = Queue.length model + 1)

(* The int entry points: [Stats.add_ns] records what [Stats.add] of
   the µs value records, and neither it nor [Prng.exponential_int]
   (pinned to the boxed generator's float draw above) allocates a
   word. *)
let test_int_entry_points () =
  let p = Prng.create ~seed:9L in
  let a = Stats.create () and b = Stats.create () in
  for i = 1 to 1_000 do
    let ns = i * 7_919 mod 1_000_003 in
    Stats.add_ns a ns;
    Stats.add b (float_of_int ns /. 1e3)
  done;
  List.iter
    (fun (what, f) -> check Alcotest.bool what true (same_bits (f a) (f b)))
    [ ("mean", Stats.mean); ("max", Stats.max_value); ("p50", Stats.median); ("p99.9", Stats.p999) ];
  let i = ref 0 in
  check Alcotest.int "words per exponential_int" 0
    (int_of_float
       (minor_words_per_call ~n:100_000 (fun () -> ignore (Prng.exponential_int p ~mean:1e6))));
  check Alcotest.int "words per add_ns" 0
    (int_of_float
       (minor_words_per_call ~n:100_000 (fun () ->
            incr i;
            Stats.add_ns a ((!i * 7_919) land 0xF_FFFF))))

let suite =
  [
    ("heap basic", `Quick, test_heap_basic);
    ("heap pop_exn empty", `Quick, test_heap_pop_exn_empty);
    ("heap top_exn", `Quick, test_heap_top_exn);
    ("heap handles stay below capacity", `Quick, test_heap_handles_below_capacity);
    ("heap growth with duplicates", `Quick, test_heap_growth_duplicates);
    qtest prop_heap_sorts;
    qtest prop_heap_interleaved;
    qtest prop_heap_drain_sorted_after_churn;
    ("deque basic", `Quick, test_deque_basic);
    ("deque wraparound", `Quick, test_deque_wraparound);
    qtest prop_deque_model;
    ("stats basic", `Quick, test_stats_basic);
    ("stats merge", `Quick, test_stats_merge);
    ("stats resort", `Quick, test_stats_add_after_percentile);
    qtest prop_stats_percentile_bounds;
    qtest prop_stats_percentile_endpoints;
    qtest prop_stats_percentile_monotone;
    qtest prop_stats_merge_preserves;
    ("prng deterministic", `Quick, test_prng_deterministic);
    qtest prop_prng_int_bounds;
    qtest prop_prng_int_bounds_extreme;
    qtest prop_prng_int_unbiased_high_bound;
    qtest prop_prng_int_uniform_small_bound;
    ("prng bernoulli extremes", `Quick, test_prng_bernoulli_extremes);
    ("prng exponential positive", `Quick, test_prng_exponential_positive);
    qtest prop_zipf_in_range;
    qtest prop_zipf_rank_ordering;
    qtest prop_zipf_theta_zero_uniform;
    qtest prop_zipf_seed_deterministic;
    ("zipf mass conservation", `Quick, test_zipf_mass_conservation);
    ("zipf invalid args", `Quick, test_zipf_invalid_args);
    (* Kept ahead of the numbered names below, so their indices stay. *)
    ("deque keeps no popped element alive", `Quick, test_deque_releases_elements);
    qtest prop_heap_rekey_model;
    qtest prop_bytes_ring_model;
    ("int-ns entry points: the float forms' values, 0 words", `Quick, test_int_entry_points);
    ("deque push and pop allocate one option", `Quick, test_deque_push_pop_allocation);
    ("fnv-1a 64 reference vectors", `Quick, test_fnv_vectors);
    qtest prop_fnv_matches_reference;
    ("fnv: 0 words per KiB hashed", `Quick, test_fnv_allocates_nothing_per_byte);
    qtest prop_prng_matches_reference;
    ("prng: 0 words per int and zipf draw", `Quick, test_prng_draws_allocate_nothing);
    qtest prop_stats_match_reference;
    ("stats: at most 2 words per add", `Quick, test_stats_add_allocation);
  ]
