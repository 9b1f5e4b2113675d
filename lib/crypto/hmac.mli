(** HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).

    The key-derivation chain of Sec. 3.3 ("all other key materials,
    including the enclave's sealing key and report key, are derived from
    K_root and the enclave's measurement") is built on these. *)

val hmac : key:bytes -> bytes -> bytes
(** HMAC-SHA256; 32-byte tag.  One-shot: {!prepare}, then {!start} /
    {!finish} over the message. *)

(** {2 Prepared keys}

    A key used for many MACs is prepared once: the inner and outer pad
    blocks are compressed into two midstates, and every MAC under the
    key rewinds one scratch context to the inner midstate instead of
    re-hashing the pads.  A MAC then allocates only its 32-byte tag. *)

type prepared
(** Two midstates and one scratch context.  The scratch makes a
    [prepared] key single-threaded: one MAC at a time. *)

val prepare : key:bytes -> prepared

val start : prepared -> Sha256.ctx
(** Rewind the key's scratch context to the inner midstate and return
    it; feed the message with {!Sha256.update} / {!Sha256.update_sub}.
    Any MAC in progress under the same key is discarded. *)

val finish : prepared -> bytes
(** The tag over everything fed since {!start}. *)

val hmac_string : key:bytes -> string -> bytes
val verify : key:bytes -> bytes -> tag:bytes -> bool

val hkdf_extract : ?salt:bytes -> ikm:bytes -> unit -> bytes
val hkdf_expand : prk:bytes -> info:string -> len:int -> bytes

val derive : key:bytes -> info:string -> bytes
(** [derive ~key ~info] is a 32-byte subkey: extract-then-expand with
    [info] as the context label. *)
