module Id = Concilium_overlay.Id
module Pki = Concilium_crypto.Pki
module Signed = Concilium_crypto.Signed
module Graph = Concilium_provenance.Graph

type archive = { mutable verdicts : Accusation.t list }

let create_archive () = { verdicts = [] }
let archive_size archive = List.length archive.verdicts

let record archive accusation = archive.verdicts <- accusation :: archive.verdicts

let drop_time accusation =
  (Signed.payload accusation).Accusation.evidence.Accusation.drop_time

let covers ~accusation candidate =
  let accusation_body = Signed.payload accusation in
  let candidate_body = Signed.payload candidate in
  (* The onward verdict must come from the accused itself, for (nearly) the
     same drop: stewards time their judgments off the same missing ack, so
     the two drop times differ by at most the probe window. *)
  Id.equal candidate_body.Accusation.accuser accusation_body.Accusation.accused
  && abs_float (drop_time candidate -. drop_time accusation)
     <= accusation_body.Accusation.config.Blame.delta

let defend archive ~against =
  List.find_opt (fun candidate -> covers ~accusation:against candidate) archive.verdicts

type outcome =
  | Accusation_stands
  | Blame_shifted of Id.t
  | Accusation_invalid of Accusation.rejection

(* analysis: allow test-only — rebuttal adjudication (paper Section 3.5): tests prove a valid
   rebuttal shifts blame and a forged one fails *)
let adjudicate ?(prov = Concilium_provenance.Graph.noop) ?(accuser = -1) ?(accused = -1) pki
    ~accusation ~rebuttal =
  let outcome =
    match Accusation.verify pki accusation with
    | Error rejection -> Accusation_invalid rejection
    | Ok () -> (
        match rebuttal with
        | None -> Accusation_stands
        | Some candidate ->
            if covers ~accusation candidate && Accusation.verify pki candidate = Ok () then
              Blame_shifted (Signed.payload candidate).Accusation.accused
            else Accusation_stands)
  in
  (* Adjudications join the provenance DAG as rebuttal nodes; the caller
     supplies dense node numbers when it knows them (the signed statements
     themselves carry only overlay identities). *)
  (if Graph.enabled prov then
     let kind =
       match outcome with
       | Accusation_stands -> Graph.Stands
       | Blame_shifted _ -> Graph.Shifted
       | Accusation_invalid _ -> Graph.Invalid
     in
     ignore (Graph.rebuttal prov ~accuser ~accused ~outcome:kind : Graph.node));
  outcome
