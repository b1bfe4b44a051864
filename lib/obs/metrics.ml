(* Metrics registry: named counters, gauges and fixed-bucket histograms.

   This is the unified surface over the ad-hoc per-subsystem stats
   records (Engine.stats, Netsim.stats, Daemon.stats, …): each
   subsystem exports its counters into a registry under a stable dotted
   name, registries from different nodes merge, and the result prints
   as one table. Handles are plain mutable records, so a hot path that
   holds a handle pays one store per update. *)

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

(* The sum sits in a one-field all-float record, which OCaml stores
   flat: a [mutable float] field of the mixed [histogram] record would
   box a fresh float on every [observe]. *)
type sum_cell = { mutable sum : float }

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length = Array.length bounds + 1 (overflow) *)
  h_sum : sum_cell;
  mutable h_count : int;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_value = 0 } in
      Hashtbl.replace t.counters name c;
      c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.c_value | None -> 0

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g_value = 0.0 } in
      Hashtbl.replace t.gauges name g;
      g

let set g v = g.g_value <- v
let gauge_value g = g.g_value

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

(* Default buckets suit latency-like values in µs: 1 µs to ~10 s. *)
let default_bounds =
  [|
    1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.;
    10_000.; 20_000.; 50_000.; 100_000.; 200_000.; 500_000.; 1_000_000.;
    10_000_000.;
  |]

let exponential_bounds ~lo ~factor ~count =
  if lo <= 0.0 || factor <= 1.0 || count < 1 then
    invalid_arg "Metrics.exponential_bounds";
  Array.init count (fun i -> lo *. (factor ** float_of_int i))

let validate_bounds bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    bounds

let histogram ?(bounds = default_bounds) t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      validate_bounds bounds;
      let h =
        {
          bounds = Array.copy bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          h_sum = { sum = 0.0 };
          h_count = 0;
        }
      in
      Hashtbl.replace t.histograms name h;
      h

(* Count [v] in the first bucket whose upper bound holds it (binary
   search) and add it to the sum. A loop, not a recursive helper: [v]
   stays an unboxed double, so with [observe_ns]'s conversion the sample
   is never boxed. *)
let[@inline] record h (v : float) =
  let bounds = h.bounds in
  let lo = ref 0 and hi = ref (Array.length bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= bounds.(mid) then hi := mid else lo := mid + 1
  done;
  let i = !lo in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_sum.sum <- h.h_sum.sum +. v;
  h.h_count <- h.h_count + 1

let observe h v = record h v
let observe_ns h ns = record h (float_of_int ns /. 1_000.0)

let hist_count h = h.h_count
let hist_sum h = h.h_sum.sum
let hist_mean h = if h.h_count = 0 then nan else h.h_sum.sum /. float_of_int h.h_count

let hist_bucket_counts h = Array.copy h.counts

(* Quantile estimate by linear interpolation within the landing bucket;
   exact enough for fixed-bucket data, and mergeable (unlike samples). *)
let hist_quantile h q =
  if h.h_count = 0 then nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int h.h_count in
    let n = Array.length h.counts in
    let rec go i cum =
      if i >= n then h.bounds.(Array.length h.bounds - 1)
      else
        let cum' = cum +. float_of_int h.counts.(i) in
        if cum' >= target && h.counts.(i) > 0 then begin
          let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
          let hi =
            if i < Array.length h.bounds then h.bounds.(i)
            else h.bounds.(Array.length h.bounds - 1) *. 2.0
          in
          let frac = (target -. cum) /. float_of_int h.counts.(i) in
          lo +. (frac *. (hi -. lo))
        end
        else go (i + 1) cum'
    in
    go 0 0.0
  end

(* Counts saturate at [max_int] instead of wrapping: a merged registry
   aggregating many long runs should degrade to "a lot", never to a
   negative count that would corrupt every quantile downstream. *)
let sat_add a b =
  let s = a + b in
  if a > 0 && b > 0 && s < 0 then max_int else s

let hist_merge a b =
  if a.bounds <> b.bounds then
    invalid_arg "Metrics.hist_merge: incompatible bucket bounds";
  let m =
    {
      bounds = Array.copy a.bounds;
      counts =
        Array.init (Array.length a.counts) (fun i ->
            sat_add a.counts.(i) b.counts.(i));
      h_sum = { sum = a.h_sum.sum +. b.h_sum.sum };
      h_count = sat_add a.h_count b.h_count;
    }
  in
  m

(* ------------------------------------------------------------------ *)
(* Registry operations                                                 *)

let merge a b =
  let t = create () in
  let copy_counters src =
    Hashtbl.iter (fun name c -> add (counter t name) c.c_value) src.counters
  in
  copy_counters a;
  copy_counters b;
  (* Later registry wins for gauges (a gauge is "current value"). *)
  Hashtbl.iter (fun name g -> set (gauge t name) g.g_value) a.gauges;
  Hashtbl.iter (fun name g -> set (gauge t name) g.g_value) b.gauges;
  let merge_hists src =
    Hashtbl.iter
      (fun name h ->
        match Hashtbl.find_opt t.histograms name with
        | None ->
            let fresh = histogram ~bounds:h.bounds t name in
            Array.blit h.counts 0 fresh.counts 0 (Array.length h.counts);
            fresh.h_sum.sum <- h.h_sum.sum;
            fresh.h_count <- h.h_count
        | Some existing ->
            Hashtbl.replace t.histograms name (hist_merge existing h))
      src.histograms
  in
  merge_hists a;
  merge_hists b;
  t

let counters t =
  Hashtbl.fold (fun name c acc -> (name, c.c_value) :: acc) t.counters []
  |> List.sort compare

let gauges t =
  Hashtbl.fold (fun name g acc -> (name, g.g_value) :: acc) t.gauges []
  |> List.sort compare

let histograms t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pp ppf t =
  let pp_counter (name, v) = Format.fprintf ppf "  %-42s %12d@." name v in
  let pp_gauge (name, v) = Format.fprintf ppf "  %-42s %12.2f@." name v in
  let pp_hist (name, h) =
    Format.fprintf ppf "  %-42s n=%d mean=%.1f p50=%.1f p99=%.1f@." name
      h.h_count (hist_mean h) (hist_quantile h 0.5) (hist_quantile h 0.99)
  in
  List.iter pp_counter (counters t);
  List.iter pp_gauge (gauges t);
  List.iter pp_hist (histograms t)
