(** AES-128 block cipher (FIPS 197) with CTR and XTS-style modes.

    CTR backs the sealing/confidentiality paths; the XTS mode mirrors what
    AMD SME applies at the memory controller (tweaked per-block encryption
    keyed by the physical address), used by the memory-encryption model's
    functional tests. *)

type key
(** An expanded key schedule.  It also carries {!ctr_into}'s scratch
    counter block and state, so a CTR pass allocates nothing — and a key
    runs one CTR pass at a time: it must not be used from two domains at
    once. *)

val expand_key : bytes -> key
(** [expand_key k] expands a 16-byte key. @raise Invalid_argument. *)

val encrypt_block : key -> bytes -> bytes
(** One 16-byte block. *)

val decrypt_block : key -> bytes -> bytes

val ctr_transform : key:bytes -> nonce:bytes -> bytes -> bytes
(** CTR keystream XOR: encryption and decryption are the same operation.
    [nonce] is up to 12 bytes. *)

val ctr_into :
  key:key ->
  nonce:bytes ->
  src:bytes ->
  src_off:int ->
  dst:bytes ->
  dst_off:int ->
  len:int ->
  unit
(** Zero-copy CTR: XOR the keystream over [src[src_off, src_off+len)]
    into [dst[dst_off, ...)].  [src] and [dst] may alias (including the
    same buffer at the same offset for a true in-place transform), and
    the key schedule is caller-provided so batched callers expand it
    once.  The pass runs in the key's scratch and allocates nothing.
    {!ctr_transform} is this over a fresh output buffer.
    @raise Invalid_argument on out-of-bounds slices or a nonce longer
    than 12 bytes. *)

val xts_encrypt : key:bytes -> tweak:int -> bytes -> bytes
(** Encrypt a buffer whose length is a multiple of 16, tweaked by the
    (physical-address-derived) integer tweak. *)

val xts_decrypt : key:bytes -> tweak:int -> bytes -> bytes
