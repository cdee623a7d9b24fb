(** Small non-cryptographic hashing helpers (FNV-1a, 64-bit). Cryptographic
    hashing lives in {!Concilium_crypto.Sha256}. *)

val fnv1a : string -> int64
(** 64-bit FNV-1a of a string. *)

val fnv1a_int : int64 -> int64 -> int64
(** [fnv1a_int acc x] folds the 8 bytes of [x] into accumulator [acc];
    seed with {!offset}. *)

val offset : int64
(** The FNV-1a offset basis. *)
