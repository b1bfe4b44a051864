(* Slots hold [Some x] for an element and [None] once vacated, so a
   popped element is never reachable from the buffer, and no
   placeholder of type ['a] is needed (which a float array could not
   hold safely). The box is made by a push and handed back by the pop
   that takes the element out. *)
type 'a t = {
  mutable data : 'a option array;
  mutable head : int; (* index of front element when size > 0 *)
  mutable size : int;
}

let create () = { data = [||]; head = 0; size = 0 }

let is_empty d = d.size = 0

let capacity d = Array.length d.data

(* Grow to double capacity, re-packing elements at offset 0. *)
let grow d =
  let old_cap = capacity d in
  let data = Array.make (max 16 (2 * old_cap)) None in
  for i = 0 to d.size - 1 do
    data.(i) <- d.data.((d.head + i) mod old_cap)
  done;
  d.data <- data;
  d.head <- 0

let push_back d x =
  if d.size >= capacity d then grow d;
  d.data.((d.head + d.size) mod capacity d) <- Some x;
  d.size <- d.size + 1

let pop_front d =
  if d.size = 0 then None
  else begin
    let i = d.head in
    let x = d.data.(i) in
    d.data.(i) <- None;
    d.head <- (i + 1) mod capacity d;
    d.size <- d.size - 1;
    x
  end
