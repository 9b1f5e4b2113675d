(** Authenticated encryption: AES-128-CTR with an encrypt-then-MAC
    HMAC-SHA256 tag.

    Backs the channel frames, TPM sealing and the SDK's [sgx_seal_data]
    equivalent.  The key is any 32-byte secret, split by HKDF into a
    cipher key and a MAC key.  There is one key type, {!keys}, and one
    frame layout, ciphertext ‖ tag, whose nonce and AAD every end
    derives; a one-shot blob is that frame with its nonce in front. *)

exception Authentication_failure

(** {2 Frames}

    [prepare] pays the HKDF key split, the AES key schedule and the MAC
    pad midstates once; the [_into]/[_in_place] operations then run the
    cipher over caller-provided buffer slices (e.g. ring-resident
    frames) without allocating plaintext/ciphertext copies.  They are
    the only AEAD implementation: {!seal}/{!unseal} are wrappers over
    them. *)

type keys
(** Prepared (pre-expanded) key material for one 32-byte key: the AES
    key schedule and the MAC key's HMAC pad midstates.  It also carries
    the MAC's scratch state and a tag's worth of scratch, so a frame
    sealed or opened under it allocates nothing — and a [keys] value must
    not be used from two domains at once. *)

val prepare : bytes -> keys
(** Split the key with one HKDF extract and two expands
    ({!Hmac.extract}, {!Hmac.expand}: the cipher key is the first 16
    bytes of the ["authenc-enc"] block, the MAC key the ["authenc-mac"]
    block), expand the AES key schedule and the MAC key's pad midstates:
    10 SHA-256 compressions and one AES key expansion per key.
    @raise Invalid_argument if the key is not 32 bytes. *)

val seal_into :
  keys ->
  aad:bytes ->
  nonce:bytes ->
  src:bytes ->
  src_off:int ->
  dst:bytes ->
  dst_off:int ->
  len:int ->
  unit
(** Write the frame of [src[src_off, src_off+len)] to [dst] at
    [dst_off]: the ciphertext in [dst[dst_off, dst_off+len)], then its
    32-byte tag ([src] and [dst] may alias for a true in-place seal).
    Nothing is allocated.
    @raise Invalid_argument on bad slices, a [dst] without room for the
    tag, or a nonce that is not 12 bytes. *)

val unseal_in_place :
  keys -> aad:bytes -> nonce:bytes -> tag:bytes -> bytes -> off:int -> len:int -> unit
(** Authenticate then decrypt [buf[off, off+len)] in place: the one way
    to open a frame.  The tag is recomputed in the keys' own scratch, so
    nothing is allocated.
    @raise Authentication_failure if the tag, AAD, or key is wrong (the
    buffer is untouched in that case). *)

(** {2 One-shot blobs}

    TPM-sealed keys, EPC swap pages, enclave-sealed data, session
    tickets and migration packages are each one blob,
    [nonce (12) ‖ ciphertext ‖ tag (32)]: a frame with its nonce in
    front.  The AAD is never stored: the opener derives it from what it
    already knows (a PCR policy, a page's identity and version, a
    ticket domain, a migration route), so a blob opened under any other
    context fails its tag. *)

val overhead : int
(** 44: the nonce plus the tag.  A blob is its plaintext plus this. *)

val seal : keys -> aad:bytes -> nonce:bytes -> bytes -> bytes
(** [seal keys ~aad ~nonce pt] is [nonce ‖ ciphertext ‖ tag], built with
    {!seal_into}.  @raise Invalid_argument if [nonce] is not 12 bytes. *)

val unseal : keys -> aad:bytes -> bytes -> bytes
(** Open a {!seal} blob under the AAD the caller derives, through
    {!unseal_in_place}; returns the plaintext.
    @raise Authentication_failure if the tag, AAD or key is wrong, or the
    blob is shorter than {!overhead}. *)
