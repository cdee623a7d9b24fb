type 'a t = {
  data : 'a option array;
  mutable start : int; (* index of oldest element *)
  mutable length : int;
}

let create capacity =
  if capacity <= 0 then invalid_arg "Ring_buffer.create: capacity must be positive";
  { data = Array.make capacity None; start = 0; length = 0 }

let capacity t = Array.length t.data
let length t = t.length

let push t x =
  let cap = capacity t in
  if t.length < cap then begin
    t.data.((t.start + t.length) mod cap) <- Some x;
    t.length <- t.length + 1;
    None
  end
  else begin
    let evicted = t.data.(t.start) in
    t.data.(t.start) <- Some x;
    t.start <- (t.start + 1) mod cap;
    evicted
  end

let fold f init t =
  let cap = capacity t in
  let acc = ref init in
  for i = 0 to t.length - 1 do
    match t.data.((t.start + i) mod cap) with
    | Some x -> acc := f !acc x
    (* analysis: allow assert-false — slots below [t.length] are always
       populated by [push]. *)
    | None -> assert false
  done;
  !acc

let count predicate t = fold (fun n x -> if predicate x then n + 1 else n) 0 t
let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let clear t =
  Array.fill t.data 0 (capacity t) None;
  t.start <- 0;
  t.length <- 0
