let offset = 0xCBF29CE484222325L
let prime = 0x100000001B3L

(* An index loop over a local [ref] that no closure captures: ocamlopt
   keeps the running hash in a register, so only the result is boxed. *)
let string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
  done;
  !h
