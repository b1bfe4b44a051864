(* Slots hold [Some x] for an element and [None] once vacated, so a
   popped or cleared element is never reachable from the buffer, and no
   placeholder of type ['a] is needed (which a float array could not
   hold safely). The box is made by a push and handed back by the pop
   that takes the element out. *)
type 'a t = {
  mutable data : 'a option array;
  mutable head : int; (* index of front element when size > 0 *)
  mutable size : int;
}

let create () = { data = [||]; head = 0; size = 0 }

let length d = d.size

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

let push_front d x =
  if d.size >= capacity d then grow d;
  d.head <- (d.head - 1 + capacity d) mod capacity d;
  d.data.(d.head) <- Some x;
  d.size <- d.size + 1

(* The element in slot [i], which is then vacated. *)
let take d i =
  let x = d.data.(i) in
  d.data.(i) <- None;
  d.size <- d.size - 1;
  x

let pop_front d =
  if d.size = 0 then None
  else begin
    let i = d.head in
    d.head <- (i + 1) mod capacity d;
    take d i
  end

let pop_back d =
  if d.size = 0 then None else take d ((d.head + d.size - 1) mod capacity d)

let peek_front d = if d.size = 0 then None else d.data.(d.head)

let peek_back d =
  if d.size = 0 then None else d.data.((d.head + d.size - 1) mod capacity d)

let clear d =
  Array.fill d.data 0 (capacity d) None;
  d.head <- 0;
  d.size <- 0

(* The element [i] places behind the front. *)
let get d i =
  match d.data.((d.head + i) mod capacity d) with
  | Some x -> x
  | None -> assert false

let iter f d =
  for i = 0 to d.size - 1 do
    f (get d i)
  done

let fold f init d =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) d;
  !acc

let to_list d = List.rev (fold (fun acc x -> x :: acc) [] d)

let exists p d =
  let rec loop i = i < d.size && (p (get d i) || loop (i + 1)) in
  loop 0
