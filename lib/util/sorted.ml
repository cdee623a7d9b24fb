let search predicate a =
  (* Invariant: predicate holds for all indices >= hi, fails below lo. *)
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if predicate a.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let lower_bound compare a x = search (fun y -> compare y x >= 0) a
let upper_bound compare a x = search (fun y -> compare y x > 0) a
