(* The running moments sit in an all-float record, which OCaml stores
   flat: updating them stores raw doubles instead of boxing a fresh float
   per field, as the float fields of a mixed record would. *)
type moments = { mutable sum : float; mutable hi : float }

type t = {
  mutable samples : float array;
  mutable size : int;
  m : moments;
  mutable sorted : bool;
}

let create () =
  {
    samples = [||];
    size = 0;
    m = { sum = 0.0; hi = neg_infinity };
    sorted = true;
  }

let[@inline] record t x =
  if t.size >= Array.length t.samples then begin
    let cap = max 64 (2 * Array.length t.samples) in
    let samples = Array.make cap 0.0 in
    Array.blit t.samples 0 samples 0 t.size;
    t.samples <- samples
  end;
  t.samples.(t.size) <- x;
  t.size <- t.size + 1;
  let m = t.m in
  m.sum <- m.sum +. x;
  if x > m.hi then m.hi <- x;
  t.sorted <- false

let add t x = record t x
let add_ns t ns = record t (float_of_int ns /. 1e3)

let count t = t.size

let mean t = if t.size = 0 then nan else t.m.sum /. float_of_int t.size

let max_value t = if t.size = 0 then nan else t.m.hi

let ensure_sorted t =
  if not t.sorted then begin
    let view = Array.sub t.samples 0 t.size in
    Array.sort Float.compare view;
    Array.blit view 0 t.samples 0 t.size;
    t.sorted <- true
  end

let percentile t p =
  if t.size = 0 then nan
  else begin
    ensure_sorted t;
    let p = Float.max 0.0 (Float.min 100.0 p) in
    (* Nearest rank: ceil (p/100 * n). A decimal p such as 99.9 is no
       binary fraction, so the product can land a rounding error above a
       whole rank (999.0000000000001 at n = 1000), and ceil would take
       the next slot: a product within rounding of an integer is it. *)
    let x = p /. 100.0 *. float_of_int t.size in
    let whole = Float.round x in
    let rank =
      int_of_float
        (if Float.abs (x -. whole) <= 1e-9 *. Float.max 1.0 whole then whole
         else ceil x)
    in
    let idx = max 0 (min (t.size - 1) (rank - 1)) in
    t.samples.(idx)
  end

let median t = percentile t 50.0
let p999 t = percentile t 99.9

let merge a b =
  let t = create () in
  for i = 0 to a.size - 1 do
    add t a.samples.(i)
  done;
  for i = 0 to b.size - 1 do
    add t b.samples.(i)
  done;
  t
