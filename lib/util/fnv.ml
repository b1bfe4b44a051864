let offset = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let string h s =
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h
