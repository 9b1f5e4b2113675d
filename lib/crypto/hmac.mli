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
    re-hashing the pads.  A MAC then allocates only its 32-byte tag, or
    nothing when {!finish_into} writes the tag into the caller's
    buffer. *)

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

val finish_into : prepared -> bytes -> off:int -> unit
(** {!finish} writing the 32-byte tag to [buf[off, off+32)] instead of a
    fresh buffer: the inner digest is carried through that slot, so
    nothing is allocated.
    @raise Invalid_argument on an out-of-bounds slice. *)

val hmac_string : key:bytes -> string -> bytes
val verify : key:bytes -> bytes -> tag:bytes -> bool

val hkdf_extract : ?salt:bytes -> ikm:bytes -> unit -> bytes
(** RFC 5869 HKDF-Extract: the pseudorandom key (PRK) as raw bytes.
    [expand (prepare ~key:prk)] is HKDF-Expand under it. *)

(** {2 Extract once, expand many}

    Every key derived from one secret shares its HKDF-Extract.  A caller
    that derives several keys from one secret extracts once and keeps the
    PRK prepared: each 32-byte key is then one expand block, two SHA-256
    compressions for an [info] of at most 54 bytes (the message block
    and the outer digest), where a {!derive} pays six (the extract's
    two, the PRK's two pad midstates and the block's two). *)

val extract : ikm:bytes -> prepared
(** HKDF-Extract under the zero salt, with the PRK prepared for
    {!expand}: [prepare ~key:(hkdf_extract ~ikm ())].  The zero salt's
    pad midstates are computed once per process, and the extract runs in
    the scratch context the PRK then keeps: one context per extract.
    Like any {!prepared} key it runs one expand at a time. *)

val expand : prepared -> info:string -> len:int -> bytes
(** HKDF-Expand of [len] bytes under a prepared PRK: {!expand_into} a
    fresh buffer.
    @raise Invalid_argument unless [0 <= len <= 255 * 32]. *)

val expand_into : prepared -> info:string -> bytes -> off:int -> len:int -> unit
(** {!expand} writing [buf[off, off+len)] in place: each whole block is
    finished straight into [buf] and the next block reads it from there,
    so only a last partial block allocates (its 32-byte tag).  A key
    that needs the first 16 bytes of a block can expand the whole block
    and read its prefix: block 1 does not depend on [len].
    @raise Invalid_argument unless [0 <= len <= 255 * 32] and the slice
    is in bounds. *)

val prepare_in : prepared -> bytes -> prepared
(** [prepare_in spent pad] prepares the key whose zero-padded 64-byte
    block is [pad] (a key of at most 64 bytes, e.g. one {!expand_into}
    wrote there) in [spent]'s scratch context, which the result takes
    over: [spent] must not be used again, and [pad] is overwritten.  A
    key expanded under a PRK that is then discarded is prepared without
    a second context.
    @raise Invalid_argument unless [pad] is 64 bytes. *)

val derive : key:bytes -> info:string -> bytes
(** [derive ~key ~info] is a 32-byte subkey:
    [expand (extract ~ikm:key) ~info ~len:32]. *)
