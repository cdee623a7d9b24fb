type 'a t = { payload : 'a; signer : Pki.public_key; signature : Pki.signature }

let domain = "concilium-signed-v1|"

let make ~serialize ~signer ~secret payload =
  { payload; signer; signature = Pki.sign secret (domain ^ serialize payload) }

let check ~serialize pki t = Pki.verify pki t.signer (domain ^ serialize t.payload) t.signature

(* analysis: allow test-only — adversary fixture: tests forge envelopes to prove the verifiers
   reject them *)
let forge ~signer ~fake_signature payload = { payload; signer; signature = fake_signature }

let payload t = t.payload
(* analysis: allow test-only — adversary fixture: tests re-sign tampered payloads under the
   original signer *)
let signer t = t.signer
