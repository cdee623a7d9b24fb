module Id = Concilium_overlay.Id
module Freshness = Concilium_overlay.Freshness
module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

type path_summary = {
  peer : Id.t;
  loss_level : int;
  freshness : Freshness.stamp;
}

type body = { origin : Id.t; issued_at : float; summaries : path_summary list }
type t = body Signed.t

let serialize_summary s =
  Printf.sprintf "%s:%d:%s" (Id.to_hex s.peer) s.loss_level
    (Freshness.serialize (Signed.payload s.freshness))

let serialize_body body =
  Printf.sprintf "snapshot|%s|%.6f|%s" (Id.to_hex body.origin) body.issued_at
    (String.concat ";" (List.map serialize_summary body.summaries))

let make ~origin ~secret ~public ~now ~summaries =
  Signed.make ~serialize:serialize_body ~signer:public ~secret
    { origin; issued_at = now; summaries }

let verify pki t = Signed.check ~serialize:serialize_body pki t

let entry_bytes = 144 (* 16B id + 4B timestamp + signature, per Section 4.4 *)
let summary_bytes = 1
let header_bytes = 16 + 4 (* origin + timestamp *)

let wire_bytes t =
  let body = Signed.payload t in
  let entries = List.length body.summaries in
  header_bytes + (entries * (entry_bytes + summary_bytes)) + Pki.modeled_signature_bytes
