(** Simulated public-key infrastructure.

    The paper assumes a central authority that binds each host's IP address
    to a public key and a randomly assigned overlay identifier (Castro et
    al.). Inside a single-process simulation, real asymmetric cryptography
    adds cost but no behavioural fidelity, so signatures here are HMACs over
    per-principal secrets and verification consults the authority's registry
    — the exact trust model of the paper, with the CA as the root. The
    modeled *wire sizes* (RSA-1024 PSS-R) are kept for the Section 4.4
    bandwidth accounting. This substitution is recorded in DESIGN.md. *)

type t
(** The authority (and, for the simulator, the universe of key bindings). *)

type public_key
type secret_key

type signature

type certificate = {
  subject_address : string;  (** IP address of the certified host *)
  subject_node_id : string;  (** serialized overlay identifier *)
  subject_key : public_key;
  authority_signature : signature;
}

val create : seed:int64 -> t

val issue : t -> address:string -> node_id:string -> certificate * secret_key
(** Enroll a host: generate its keypair, register it, and return its
    certificate along with the secret only that host should hold. *)

val sign : secret_key -> string -> signature
val verify : t -> public_key -> string -> signature -> bool
(** [verify t pk msg s] checks that [s] was produced over [msg] by the
    holder of the secret matching [pk]. Unknown keys verify as [false]. *)

val verify_certificate : t -> certificate -> bool

val public_key_to_string : public_key -> string
val public_key_of_string : string -> public_key
val signature_to_string : signature -> string

val signature_of_string : string -> signature
(** Rebuild a signature from its wire form (also handy for forging invalid
    signatures in attack scenarios). *)

val modeled_signature_bytes : int
(** Wire size of an RSA-1024 PSS-R signature (paper Section 4.4). *)
