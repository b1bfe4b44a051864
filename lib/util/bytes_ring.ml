(* [len] pairs from [head], slot [i] of both arrays holding one pair. *)
type t = {
  mutable bufs : bytes array;
  mutable ints : int array;
  mutable head : int;
  mutable len : int;
}

let create () = { bufs = [||]; ints = [||]; head = 0; len = 0 }
let length q = q.len
let is_empty q = q.len = 0

let grow q =
  let cap = Array.length q.bufs in
  let grow a fill =
    let b = Array.make (max 16 (2 * cap)) fill in
    Array.blit a q.head b 0 (cap - q.head);
    Array.blit a 0 b (cap - q.head) q.head;
    b
  in
  q.bufs <- grow q.bufs Bytes.empty;
  q.ints <- grow q.ints 0;
  q.head <- 0

let push q b i =
  if q.len = Array.length q.bufs then grow q;
  let j = (q.head + q.len) land (Array.length q.bufs - 1) in
  q.bufs.(j) <- b;
  q.ints.(j) <- i;
  q.len <- q.len + 1

let front_bytes q =
  if q.len = 0 then invalid_arg "Bytes_ring.front_bytes";
  q.bufs.(q.head)

let front_int q =
  if q.len = 0 then invalid_arg "Bytes_ring.front_int";
  q.ints.(q.head)

let drop q =
  if q.len > 0 then begin
    q.bufs.(q.head) <- Bytes.empty;
    q.head <- (q.head + 1) land (Array.length q.bufs - 1);
    q.len <- q.len - 1
  end

let clear q =
  while q.len > 0 do
    drop q
  done;
  q.head <- 0
