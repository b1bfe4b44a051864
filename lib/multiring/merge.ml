(* Deterministic learner merge over M ring streams, by position.

   Ring r's unit i (its i-th item or skipped position) sorts at merge
   turn i * M + r. Each ring keeps its items with their positions and
   the position it is known to have reached; the merge keeps the next
   turn. Turn T belongs to ring T mod M, unit T / M: if that unit is not
   yet known the merge blocks, if the ring holds an item there it emits,
   and otherwise (a skipped position) the turn passes.

   Because a turn is a function of (ring, position), the merged order is
   a pure function of the per-ring positions: pushes, seeks and drains
   may interleave in any real-time order, and a learner that seeks past
   items it never saw (a snapshot install) lines up with one that saw
   them all.

   Each ring's items live in one lane: a circular buffer of (slot,
   position, stamp) cells that doubles when full, so a steady push/drain
   allocates nothing. Taken cells hold [empty], so the merge never keeps
   an emitted item alive. *)

type 'a input = Item of 'a | Skip of int

type 'a lane = {
  mutable slots : 'a array;
  mutable pos : int array;  (* each held item's position, increasing *)
  mutable stamps : int array;  (* each held item's caller stamp *)
  mutable head : int;
  mutable len : int;
  mutable known : int;  (* units [0, known) are known *)
}

type 'a t = {
  lanes : 'a lane array;
  mutable held : int;  (* items over all lanes *)
  mutable turn : int;
  mutable emitted : int;
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
            pos = Array.make initial_cells 0;
            stamps = Array.make initial_cells 0;
            head = 0;
            len = 0;
            known = 0;
          });
    held = 0;
    turn = 0;
    emitted = 0;
  }

let rings t = Array.length t.lanes
let emitted t = t.emitted
let turn t = t.turn

let lane t ring =
  if ring < 0 || ring >= Array.length t.lanes then invalid_arg "Merge: ring";
  t.lanes.(ring)

let position t ~ring = (lane t ring).known
let pending t ~ring = (lane t ring).len

(* Double a full lane, unwrapping its cells to start at index 0. *)
let grow l =
  let cap = Array.length l.pos in
  let slots = Array.make (2 * cap) (empty ()) and pos = Array.make (2 * cap) 0 in
  let stamps = Array.make (2 * cap) 0 in
  for i = 0 to l.len - 1 do
    let j = (l.head + i) land (cap - 1) in
    slots.(i) <- l.slots.(j);
    pos.(i) <- l.pos.(j);
    stamps.(i) <- l.stamps.(j)
  done;
  l.slots <- slots;
  l.pos <- pos;
  l.stamps <- stamps;
  l.head <- 0

let push_item t ~ring ~stamp x =
  let l = lane t ring in
  if l.len = Array.length l.pos then grow l;
  let i = (l.head + l.len) land (Array.length l.pos - 1) in
  l.slots.(i) <- x;
  l.pos.(i) <- l.known;
  l.stamps.(i) <- stamp;
  l.len <- l.len + 1;
  l.known <- l.known + 1;
  t.held <- t.held + 1

let seek t ~ring p =
  let l = lane t ring in
  if p > l.known then l.known <- p

let push t ~ring = function
  | Item x -> push_item t ~ring ~stamp:0 x
  | Skip k -> seek t ~ring (position t ~ring + k)

(* The earliest turn at or after [t.turn] that emits or blocks: the
   lowest of each ring's first unknown turn and its front item's turn.
   Every turn before it is a skipped position. *)
let next_turn t =
  let m = Array.length t.lanes in
  let best = ref max_int in
  for r = 0 to m - 1 do
    let l = t.lanes.(r) in
    let at = if l.len > 0 then l.pos.(l.head) else l.known in
    let turn = (at * m) + r in
    if turn < !best then best := turn
  done;
  !best

(* Only while some ring holds an item: an idle merge leaves its turn
   where the last item left it. The ring that owns the next turn emits
   if it holds an item (its front item's turn won), else it blocks. *)
let rec drain t f =
  if t.held > 0 then begin
    let turn = next_turn t in
    let r = turn mod Array.length t.lanes in
    let l = t.lanes.(r) in
    t.turn <- turn;
    if l.len > 0 then begin
      let x = l.slots.(l.head) and stamp = l.stamps.(l.head) in
      l.slots.(l.head) <- empty ();
      l.head <- (l.head + 1) land (Array.length l.pos - 1);
      l.len <- l.len - 1;
      t.held <- t.held - 1;
      t.emitted <- t.emitted + 1;
      t.turn <- turn + 1;
      f r stamp x;
      drain t f
    end
  end

let pop_all t =
  let out = ref [] in
  drain t (fun r _ x -> out := (r, x) :: !out);
  List.rev !out
