module Id = Concilium_overlay.Id
module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

type vote = {
  prober : Id.t;
  prober_key : Pki.public_key;
  time : float;
  up : bool;
  vote_signature : Pki.signature;
}

let vote_payload ~link ~prober ~time ~up =
  Printf.sprintf "vote|%d|%s|%.6f|%b" link (Id.to_hex prober) time up

let make_vote ~prober ~secret ~public ~link ~time ~up =
  {
    prober;
    prober_key = public;
    time;
    up;
    vote_signature = Pki.sign secret (vote_payload ~link ~prober ~time ~up);
  }

let vote_valid pki ~link vote =
  Pki.verify pki vote.prober_key
    (vote_payload ~link ~prober:vote.prober ~time:vote.time ~up:vote.up)
    vote.vote_signature

type link_evidence = { link : int; votes : vote list }

type evidence = {
  path_links : int array;
  link_votes : link_evidence list;
  drop_time : float;
  commitment : Commitment.t;
}

type body = {
  accuser : Id.t;
  accused : Id.t;
  issued_at : float;
  blame : float;
  config : Blame.config;
  evidence : evidence;
  supporting : evidence list;
}

type t = body Signed.t

let serialize_vote v =
  Printf.sprintf "%s,%f,%b,%s" (Id.to_hex v.prober) v.time v.up
    (Pki.signature_to_string v.vote_signature)

let serialize_evidence e =
  let links = String.concat "," (Array.to_list (Array.map string_of_int e.path_links)) in
  let votes =
    String.concat ";"
      (List.map
         (fun le ->
           Printf.sprintf "%d:%s" le.link (String.concat "+" (List.map serialize_vote le.votes)))
         e.link_votes)
  in
  Printf.sprintf "%s|%s|%.6f|%s" links votes e.drop_time
    (Commitment.serialize_body (Signed.payload e.commitment))

let serialize_body b =
  Printf.sprintf "accusation|%s|%s|%.6f|%.9f|%f,%f,%f|%s|%s" (Id.to_hex b.accuser)
    (Id.to_hex b.accused) b.issued_at b.blame b.config.Blame.accuracy b.config.Blame.delta
    b.config.Blame.guilt_threshold (serialize_evidence b.evidence)
    (String.concat "&" (List.map serialize_evidence b.supporting))

(* Votes grouped per path link, excluding the accused's own contributions —
   the layout Blame.blame_of_observations expects. *)
let grouped_votes ~accused evidence =
  Array.map
    (fun link ->
      match List.find_opt (fun le -> le.link = link) evidence.link_votes with
      | None -> []
      | Some le ->
          List.filter_map
            (fun v -> if Id.equal v.prober accused then None else Some (0, v.up))
            le.votes)
    evidence.path_links

let compute_blame ~accused ~config evidence =
  Blame.blame_of_observations config ~grouped:(grouped_votes ~accused evidence)

let make ~accuser ~secret ~public ~accused ~config ~evidence ~supporting ~now =
  let blame = compute_blame ~accused ~config evidence in
  if blame < config.Blame.guilt_threshold then
    invalid_arg "Accusation.make: evidence does not support a guilty verdict";
  Signed.make ~serialize:serialize_body ~signer:public ~secret
    { accuser; accused; issued_at = now; blame; config; evidence; supporting }

type rejection =
  | Bad_signature
  | Bad_commitment
  | Commitment_mismatch
  | Bad_vote_signature
  | Blame_mismatch
  | Below_threshold
  | Weak_supporting_evidence

(* analysis: allow test-only — accusation verifier (paper Section 3.4): any node can re-check
   the signatures, commitment and recomputed blame; tests prove forgeries are rejected *)
let verify pki t =
  let b = Signed.payload t in
  let e = b.evidence in
  if not (Signed.check ~serialize:serialize_body pki t) then Error Bad_signature
  else if not (Commitment.verify pki e.commitment) then Error Bad_commitment
  else if not (Id.equal (Signed.payload e.commitment).Commitment.forwarder b.accused) then
    Error Commitment_mismatch
  else if
    not
      (List.for_all
         (fun le -> List.for_all (fun v -> vote_valid pki ~link:le.link v) le.votes)
         e.link_votes)
  then Error Bad_vote_signature
  else begin
    let recomputed = compute_blame ~accused:b.accused ~config:b.config e in
    if abs_float (recomputed -. b.blame) > 1e-9 then Error Blame_mismatch
    else if recomputed < b.config.Blame.guilt_threshold then Error Below_threshold
    else begin
      let supporting_ok extra =
        List.for_all
          (fun le -> List.for_all (fun v -> vote_valid pki ~link:le.link v) le.votes)
          extra.link_votes
        && compute_blame ~accused:b.accused ~config:b.config extra
           >= b.config.Blame.guilt_threshold
      in
      if List.for_all supporting_ok b.supporting then Ok ()
      else Error Weak_supporting_evidence
    end
  end
