(** Authenticated encryption: AES-128-CTR with an encrypt-then-MAC
    HMAC-SHA256 tag.

    Backs TPM sealing and the SDK's [sgx_seal_data] equivalent.  The key is
    any 32-byte secret; the first 16 bytes key the cipher, the last 16 key
    the MAC (after domain separation). *)

type sealed = {
  nonce : bytes;  (** 12 bytes *)
  ciphertext : bytes;
  tag : bytes;  (** 32 bytes *)
  aad : bytes;  (** additional authenticated data, bound but not hidden *)
}

exception Authentication_failure

val seal : key:bytes -> ?aad:bytes -> nonce:bytes -> bytes -> sealed
(** One-shot seal: {!prepare} then {!seal_into} a fresh ciphertext buffer.
    Every call prepares the key again (HKDF split, AES schedule, HMAC
    pads), so it is meant for one-shot blobs — TPM sealing, EPC swap,
    tickets; a channel that seals many messages under one key prepares
    it once and uses {!seal_into}.
    @raise Invalid_argument if [key] is not 32 bytes or nonce not 12. *)

val unseal : key:bytes -> sealed -> bytes
(** One-shot unseal: {!prepare} then {!unseal_in_place} over a copy of
    the ciphertext; like {!seal}, it prepares the key on every call.
    @raise Authentication_failure if the tag, AAD, or key is wrong. *)

(** {2 Zero-copy path}

    [prepare] pays the HKDF key split and AES key schedule once; the
    [_into]/[_in_place] operations then run the cipher over
    caller-provided buffer slices (e.g. ring-resident frames) without
    allocating plaintext/ciphertext copies.  They are the only AEAD
    implementation: {!seal}/{!unseal} are wrappers over them. *)

type keys
(** Prepared (pre-expanded) key material for one 32-byte key: the AES
    key schedule and the MAC key's HMAC pad midstates.  It also carries
    the MAC's scratch state, so a MAC under it allocates only the tag —
    and a [keys] value must not be used from two domains at once. *)

val prepare : bytes -> keys
(** @raise Invalid_argument if the key is not 32 bytes. *)

val seal_into :
  keys ->
  aad:bytes ->
  nonce:bytes ->
  src:bytes ->
  src_off:int ->
  dst:bytes ->
  dst_off:int ->
  len:int ->
  bytes
(** Encrypt [src[src_off, src_off+len)] into [dst[dst_off, ...)] ([src]
    and [dst] may alias for a true in-place seal) and return the 32-byte
    tag over the ciphertext slice.  @raise Invalid_argument on bad
    slices or a nonce that is not 12 bytes. *)

val unseal_in_place :
  keys -> aad:bytes -> nonce:bytes -> tag:bytes -> bytes -> off:int -> len:int -> unit
(** Authenticate then decrypt [buf[off, off+len)] in place: the one way
    to open a frame.
    @raise Authentication_failure if the tag, AAD, or key is wrong (the
    buffer is untouched in that case). *)

val encode : sealed -> bytes
(** Length-prefixed wire form (for writing sealed blobs to "disk"). *)

val decode : bytes -> sealed
(** @raise Invalid_argument on malformed input. *)
