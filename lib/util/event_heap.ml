(* Keys are stored by handle, so a sift moves handles only. [heap] is a
   permutation of every handle: positions [0, size) hold the pending
   entries in heap order, positions [size, capacity) the free handles, so
   the free pool needs no array of its own. *)
type t = {
  mutable at : int array;  (* handle -> at *)
  mutable seq : int array;  (* handle -> seq *)
  mutable pos : int array;  (* handle -> position in [heap] *)
  mutable heap : int array;  (* position -> handle *)
  mutable size : int;
}

let create () = { at = [||]; seq = [||]; pos = [||]; heap = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0
let capacity t = Array.length t.heap

let place t h i =
  t.heap.(i) <- h;
  t.pos.(h) <- i

let reserve t n =
  let old = Array.length t.heap in
  if n > old then begin
    let extend a =
      let b = Array.make n 0 in
      Array.blit a 0 b 0 old;
      b
    in
    t.at <- extend t.at;
    t.seq <- extend t.seq;
    t.pos <- extend t.pos;
    t.heap <- extend t.heap;
    for h = old to n - 1 do
      place t h h
    done
  end

let less t a b =
  let xa = t.at.(a) and xb = t.at.(b) in
  xa < xb || (xa = xb && t.seq.(a) < t.seq.(b))

(* Settle handle [h] into hole [i], moving down every parent that sorts
   after it. *)
let rec sift_up t h i =
  let p = (i - 1) / 2 in
  if i > 0 && less t h t.heap.(p) then begin
    place t t.heap.(p) i;
    sift_up t h p
  end
  else place t h i

(* Settle handle [h] into hole [i], moving up every smaller child. *)
let rec sift_down t h i =
  let l = (2 * i) + 1 in
  let c = if l + 1 < t.size && less t t.heap.(l + 1) t.heap.(l) then l + 1 else l in
  if c < t.size && less t t.heap.(c) h then begin
    place t t.heap.(c) i;
    sift_down t h c
  end
  else place t h i

let add t ~at ~seq =
  if t.size = Array.length t.heap then reserve t (max 16 (2 * t.size));
  let h = t.heap.(t.size) in
  t.at.(h) <- at;
  t.seq.(h) <- seq;
  t.size <- t.size + 1;
  sift_up t h (t.size - 1);
  h

(* Settle handle [h] into hole [p], up or down. *)
let resift t h p =
  if p > 0 && less t h t.heap.((p - 1) / 2) then sift_up t h p
  else sift_down t h p

let check_pending name t i =
  if i < 0 || i >= Array.length t.pos || t.pos.(i) >= t.size then
    invalid_arg ("Event_heap." ^ name ^ ": handle not pending")

let rekey t i ~at ~seq =
  check_pending "rekey" t i;
  t.at.(i) <- at;
  t.seq.(i) <- seq;
  resift t i t.pos.(i)

let top_exn t =
  if t.size = 0 then invalid_arg "Event_heap.top_exn: empty heap";
  t.heap.(0)

let top_at t = t.at.(top_exn t)
let top_seq t = t.seq.(top_exn t)

(* Take pending handle [h] out of position [p]: [h] moves to position
   [size] once the heap shrinks, the head of the free handles, so the
   next [add] hands it out again, and the last entry fills the hole. *)
let take t h p =
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  place t h t.size;
  if p < t.size then resift t last p

let pop_exn t =
  if t.size = 0 then invalid_arg "Event_heap.pop_exn: empty heap";
  let root = t.heap.(0) in
  take t root 0;
  root

let remove t i =
  check_pending "remove" t i;
  take t i t.pos.(i)
