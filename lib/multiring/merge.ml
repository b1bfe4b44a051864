(* Deterministic round-robin learner merge over M ring streams.

   Each ring feeds the merge a FIFO sequence of items (its agreed
   deliveries) and skips (liveness hints from idle periods). The merge
   holds a cursor and visits rings strictly round-robin; at each visit
   the front of the cursor ring's sequence decides what happens:

   - an item: emit [(ring, x)] and advance the cursor;
   - a skip block of [k] units: cede this turn, leave [k - 1] units at
     the front, advance the cursor;
   - nothing: the merge blocks until that ring supplies an item or a
     skip.

   Consuming skip credits strictly in queue position — never folding
   them past items pushed later — is what makes the merged order a pure
   function of the per-ring input sequences: no matter how pushes and
   drains interleave in real time, the same per-ring sequences produce the
   same output. An idle ring keeps the merge live by emitting skips; a
   ring that is idle *and* silent correctly stalls it (the learner has
   no way to know that ring won't deliver something that sorts next).

   Each ring's sequence lives in one lane: a circular buffer of cells
   that doubles when full, so a steady push/drain allocates nothing. A
   cell is an item slot plus an [int] kind — 0 for an item, k > 0 for a
   skip block with k units left. Skip cells and taken cells hold
   [empty], so the merge never keeps an emitted item alive. *)

type 'a input = Item of 'a | Skip of int

type 'a lane = {
  mutable slots : 'a array;  (* the item of each item cell, else [empty] *)
  mutable kinds : int array;  (* 0 = item, k > 0 = skip units left *)
  mutable head : int;
  mutable len : int;
  mutable items : int;  (* item cells in the lane *)
  mutable credits : int;  (* skip units in the lane *)
}

type 'a t = {
  lanes : 'a lane array;
  mutable held : int;  (* item cells over all lanes *)
  mutable cursor : int;
  mutable emitted : int;
  mutable credits_spent : int;
}

(* The filler of every slot that holds no item. An immediate, so it is
   never scanned and keeps nothing alive; it is never returned. *)
let empty () : 'a = Obj.magic 0

let initial_cells = 16

let create ~rings =
  if rings < 1 then invalid_arg "Merge.create: rings < 1";
  {
    lanes =
      Array.init rings (fun _ ->
          {
            slots = Array.make initial_cells (empty ());
            kinds = Array.make initial_cells 0;
            head = 0;
            len = 0;
            items = 0;
            credits = 0;
          });
    held = 0;
    cursor = 0;
    emitted = 0;
    credits_spent = 0;
  }

let rings t = Array.length t.lanes
let emitted t = t.emitted
let credits_spent t = t.credits_spent
let pending t ~ring = t.lanes.(ring).items
let unspent_credits t ~ring = t.lanes.(ring).credits

let lane t ring =
  if ring < 0 || ring >= Array.length t.lanes then invalid_arg "Merge.push: ring";
  t.lanes.(ring)

(* Double a full lane, unwrapping its cells to start at index 0. *)
let grow l =
  let cap = Array.length l.kinds in
  let slots = Array.make (2 * cap) (empty ()) and kinds = Array.make (2 * cap) 0 in
  for i = 0 to l.len - 1 do
    let j = (l.head + i) land (cap - 1) in
    slots.(i) <- l.slots.(j);
    kinds.(i) <- l.kinds.(j)
  done;
  l.slots <- slots;
  l.kinds <- kinds;
  l.head <- 0

(* Index of a new cell at the back of [l]. *)
let append l =
  if l.len = Array.length l.kinds then grow l;
  let i = (l.head + l.len) land (Array.length l.kinds - 1) in
  l.len <- l.len + 1;
  i

let drop_front l =
  l.head <- (l.head + 1) land (Array.length l.kinds - 1);
  l.len <- l.len - 1

let push_item t ~ring x =
  let l = lane t ring in
  let i = append l in
  l.slots.(i) <- x;
  l.kinds.(i) <- 0;
  l.items <- l.items + 1;
  t.held <- t.held + 1

let push_skip t ~ring k =
  let l = lane t ring in
  if k > 0 then begin
    let i = append l in
    l.kinds.(i) <- k;
    l.credits <- l.credits + k
  end

let push t ~ring = function
  | Item x -> push_item t ~ring x
  | Skip k -> push_skip t ~ring k

let advance t = t.cursor <- (t.cursor + 1) mod Array.length t.lanes

(* Visit rings from the cursor, spending one skip unit per visit, until
   the cursor ring's front is an item (its ring) or the cursor ring is
   empty (-1: blocked). Callers first check that some ring holds an
   item: without that an all-idle merge would eat its credits emitting
   nothing. *)
let rec visit t =
  let r = t.cursor in
  let l = t.lanes.(r) in
  if l.len = 0 then -1
  else
    let k = l.kinds.(l.head) in
    if k = 0 then r
    else begin
      if k = 1 then drop_front l else l.kinds.(l.head) <- k - 1;
      l.credits <- l.credits - 1;
      t.credits_spent <- t.credits_spent + 1;
      advance t;
      visit t
    end

(* Emit the item at the front of ring [r]'s lane, clearing its slot. *)
let take t r =
  let l = t.lanes.(r) in
  let x = l.slots.(l.head) in
  l.slots.(l.head) <- empty ();
  drop_front l;
  l.items <- l.items - 1;
  t.held <- t.held - 1;
  t.emitted <- t.emitted + 1;
  advance t;
  x

let rec drain t f =
  if t.held > 0 then
    let r = visit t in
    if r >= 0 then begin
      f r (take t r);
      drain t f
    end

let pop_all t =
  let out = ref [] in
  drain t (fun r x -> out := (r, x) :: !out);
  List.rev !out
