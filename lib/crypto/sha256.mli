(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for all measurements in the system: TPM PCR extends, the enclave
    measurement computed page-by-page at EADD/EINIT, and MAC/KDF
    construction.  Digests are 32 raw bytes; [to_hex] renders them. *)

type ctx

val init : unit -> ctx
val update : ctx -> bytes -> unit

val update_sub : ctx -> bytes -> off:int -> len:int -> unit
(** Absorb [data[off, off+len)] without slicing a fresh buffer — the
    zero-copy MAC path hashes ciphertext straight out of the ring.
    @raise Invalid_argument on an out-of-bounds slice. *)

val update_string : ctx -> string -> unit
val finalize : ctx -> bytes
(** Finalizing consumes the context; further [update]s raise
    [Invalid_argument]. *)

val finalize_into : ctx -> bytes -> off:int -> unit
(** {!finalize} writing the 32-byte digest to [buf[off, off+32)]; the
    padding is built in the context's own block buffer, so nothing is
    allocated.  @raise Invalid_argument on an out-of-bounds slice or an
    already finalized context. *)

type midstate
(** The chaining value (8 words) and byte count of a context that sits
    on a block boundary — e.g. after an HMAC key pad. *)

val midstate : ctx -> midstate
(** @raise Invalid_argument if the context holds buffered bytes or is
    finalized. *)

val restore : ctx -> from:midstate -> unit
(** [restore dst ~from] rewinds [dst] to [from] without allocating: a
    scratch context reused for many messages that share a prefix (HMAC
    under one prepared key) pays the prefix's compressions once.  A
    finalized [dst] becomes live again. *)

val copy : ctx -> ctx
(** Independent clone of a running context.  Lets a caller peek at the
    digest-so-far (finalize the copy) without consuming the original —
    the monitor uses this so a failed EINIT cannot brick the enclave's
    measurement, and lib/mc uses it to snapshot in-build enclaves. *)

val digest_bytes : bytes -> bytes
val digest_string : string -> bytes

val digest_size : int
(** 32. *)

val to_hex : bytes -> string
val equal : bytes -> bytes -> bool
(** Constant-time-style comparison (full scan regardless of mismatch). *)
