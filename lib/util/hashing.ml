let offset = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let fnv1a s =
  let h = ref offset in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime) s;
  !h

let fnv1a_int acc x =
  let h = ref acc in
  for shift = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical x (8 * shift)) 0xFFL in
    h := Int64.mul (Int64.logxor !h byte) prime
  done;
  !h
