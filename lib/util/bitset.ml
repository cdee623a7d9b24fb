type t = { words : Bytes.t; capacity : int }

(* Bytes rather than int arrays keeps the structure compact and avoids
   boxing; popcount is done bytewise through a 256-entry table. *)

let popcount_table =
  let table = Bytes.create 256 in
  for i = 0 to 255 do
    let rec bits n = if n = 0 then 0 else (n land 1) + bits (n lsr 1) in
    Bytes.set table i (Char.chr (bits i))
  done;
  table

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Bytes.make ((capacity + 7) / 8) '\000'; capacity }

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  Char.code (Bytes.get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i;
  let byte = Char.code (Bytes.get t.words (i lsr 3)) in
  Bytes.set t.words (i lsr 3) (Char.chr (byte lor (1 lsl (i land 7))))

let remove t i =
  check t i;
  let byte = Char.code (Bytes.get t.words (i lsr 3)) in
  Bytes.set t.words (i lsr 3) (Char.chr (byte land lnot (1 lsl (i land 7)) land 0xFF))

let cardinal t =
  let total = ref 0 in
  for b = 0 to Bytes.length t.words - 1 do
    total := !total + Char.code (Bytes.get popcount_table (Char.code (Bytes.get t.words b)))
  done;
  !total

(* Directional scans skip empty bytes, so over mostly-full sets (the alive
   set of a ring universe) neighbour lookups are effectively O(1). *)

let next_member t i =
  if i >= t.capacity then -1
  else begin
    let i = max i 0 in
    let first_byte = i lsr 3 in
    let last_byte = Bytes.length t.words - 1 in
    let result = ref (-1) in
    let b = ref first_byte in
    while !result < 0 && !b <= last_byte do
      let byte = Char.code (Bytes.get t.words !b) in
      let masked = if !b = first_byte then byte land (0xFF lsl (i land 7)) else byte in
      if masked <> 0 then begin
        let bit = ref 0 in
        while masked land (1 lsl !bit) = 0 do incr bit done;
        result := (!b lsl 3) + !bit
      end;
      incr b
    done;
    if !result >= t.capacity then -1 else !result
  end

let prev_member t i =
  if i < 0 then -1
  else begin
    let i = min i (t.capacity - 1) in
    if i < 0 then -1
    else begin
      let first_byte = i lsr 3 in
      let result = ref (-1) in
      let b = ref first_byte in
      while !result < 0 && !b >= 0 do
        let byte = Char.code (Bytes.get t.words !b) in
        let masked =
          if !b = first_byte then byte land (0xFF lsr (7 - (i land 7))) else byte
        in
        if masked <> 0 then begin
          let bit = ref 7 in
          while masked land (1 lsl !bit) = 0 do decr bit done;
          result := (!b lsl 3) + !bit
        end;
        decr b
      done;
      !result
    end
  end

let iter f t =
  for b = 0 to Bytes.length t.words - 1 do
    let byte = Char.code (Bytes.get t.words b) in
    if byte <> 0 then
      for bit = 0 to 7 do
        if byte land (1 lsl bit) <> 0 then f ((b lsl 3) + bit)
      done
  done
