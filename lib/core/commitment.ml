module Id = Concilium_overlay.Id
module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

type body = {
  forwarder : Id.t;
  sender : Id.t;
  destination : Id.t;
  message_id : string;
  issued_at : float;
}

type t = body Signed.t

let serialize_body body =
  Printf.sprintf "commit|%s|%s|%s|%s|%.6f" (Id.to_hex body.forwarder) (Id.to_hex body.sender)
    (Id.to_hex body.destination) body.message_id body.issued_at

let issue ~forwarder ~secret ~public ~sender ~destination ~message_id ~now =
  Signed.make ~serialize:serialize_body ~signer:public ~secret
    { forwarder; sender; destination; message_id; issued_at = now }

let verify pki t = Signed.check ~serialize:serialize_body pki t

(* analysis: allow test-only — forwarding-commitment match (paper Section 3.6), the field half
   of the commitment check *)
let covers t ~forwarder ~sender ~destination ~message_id =
  let body = Signed.payload t in
  Id.equal body.forwarder forwarder && Id.equal body.sender sender
  && Id.equal body.destination destination
  && String.equal body.message_id message_id
