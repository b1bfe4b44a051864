(* The SplitMix64 state lives unboxed in 8 bytes: a [mutable int64]
   field would box a fresh int64 on every store. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Draw uniformly from [0, 2^62) and reject the tail that does not divide
   evenly into [bound]: a plain [r mod bound] over-represents the low
   residues by one part in 2^62/bound, which is measurable for bounds near
   max_int. Rejection probability is bound/2^62 < 1/4, so the loop
   terminates after ~1 draw in expectation. [limit] is 2^62 - (2^62 mod
   bound), the largest multiple of bound; 0 when bound divides 2^62. *)
let rec draw t bound limit =
  (* Mask to 62 bits so the value is a non-negative OCaml int. *)
  let r = Int64.to_int (Int64.logand (next_int64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  if limit > 0 && r >= limit then draw t bound limit else r mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* 2^62 mod bound, computed in Int64 because 2^62 overflows OCaml int. *)
  let rem62 = Int64.to_int (Int64.rem 0x4000_0000_0000_0000L (Int64.of_int bound)) in
  let limit =
    if rem62 > 0 then Int64.to_int (Int64.sub 0x4000_0000_0000_0000L (Int64.of_int rem62))
    else 0
  in
  draw t bound limit

let[@inline] float t bound =
  (* 53 uniform bits, as in the standard double construction. *)
  let bits = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let exponential_int t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  int_of_float (-.mean *. log u)

(* ------------------------------------------------------------------ *)
(* Zipf sampling via a Walker/Vose alias table: O(n) construction, O(1)
   per draw, exactly two PRNG draws per sample regardless of outcome so
   the consumed stream is a pure function of (seed, draw count). *)

type zipf = {
  z_n : int;
  z_prob : float array;  (* per-column acceptance probability *)
  z_alias : int array;  (* fallback rank per column *)
}

let zipf_table ~n ~theta =
  if n <= 0 then invalid_arg "Prng.zipf_table: n must be positive";
  if theta < 0.0 then invalid_arg "Prng.zipf_table: theta must be >= 0";
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  (* Scale so the mean column weight is exactly 1: columns above the mean
     donate their excess to columns below it. *)
  let p = Array.map (fun x -> x /. total *. float_of_int n) w in
  let prob = Array.make n 1.0 in
  let alias = Array.init n (fun i -> i) in
  let small = Stack.create () and large = Stack.create () in
  Array.iteri
    (fun i x -> if x < 1.0 then Stack.push i small else Stack.push i large)
    p;
  while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
    let s = Stack.pop small and l = Stack.pop large in
    prob.(s) <- p.(s);
    alias.(s) <- l;
    p.(l) <- p.(l) -. (1.0 -. p.(s));
    if p.(l) < 1.0 then Stack.push l small else Stack.push l large
  done;
  (* Leftovers hold numerical dust only; their mass is exactly 1. *)
  Stack.iter (fun i -> prob.(i) <- 1.0) small;
  Stack.iter (fun i -> prob.(i) <- 1.0) large;
  { z_n = n; z_prob = prob; z_alias = alias }

let zipf t z =
  let j = int t z.z_n in
  let u = float t 1.0 in
  if u < z.z_prob.(j) then j else z.z_alias.(j)
