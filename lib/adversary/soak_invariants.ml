type inputs = {
  failure : string option;
  missing_outcomes : int;
  unresolved : int;
  honest_accusations : int;
  adversary_present : bool;
  adversary_fired : bool;
  adversary_detected : bool;
  require_detection : bool;
}

(* analysis: allow test-only — the all-clear outcome; tests change one field at a time to prove
   each invariant fires *)
let benign =
  {
    failure = None;
    missing_outcomes = 0;
    unresolved = 0;
    honest_accusations = 0;
    adversary_present = false;
    adversary_fired = false;
    adversary_detected = false;
    require_detection = false;
  }

let failures inputs =
  let out = ref [] in
  let flag condition label = if condition then out := label :: !out in
  flag (inputs.failure <> None) "runtime-exception";
  flag (inputs.missing_outcomes > 0) "missing-outcomes";
  flag (inputs.unresolved > 0) "unresolved-episodes";
  flag (inputs.honest_accusations > 0) "honest-node-accused";
  if inputs.adversary_present && inputs.require_detection then begin
    (* A detection scenario where the adversary never acted proves nothing:
       fail loudly rather than let a canary pass vacuously. *)
    flag (not inputs.adversary_fired) "adversary-inert";
    flag (inputs.adversary_fired && not inputs.adversary_detected) "adversary-undetected"
  end;
  List.rev !out

let pass inputs = failures inputs = []
let exit_code ~pass_all = if pass_all then 0 else 1
