(** Trusted Platform Module (Sec. 2.2).

    One device per platform, manufactured with an Endorsement Key (EK).
    An Attestation Identity Key (AIK) is generated inside the TPM and
    certified by the EK; quotes over the PCR bank are signed with the AIK.
    [seal]/[unseal] bind secrets to a PCR policy: unsealing succeeds only
    on the same chip with matching PCR values — the property RustMonitor's
    [K_root] storage relies on (Sec. 3.3 "Secret key generation").

    Every command charges [Cost_model.tpm_command] cycles: discrete TPMs
    sit on a slow bus, which is why the monitor uses the TPM only at boot
    (its one quote included) and derives everything else in software. *)

type t

type quote = {
  pcr_digest : bytes;  (** digest over the selected PCRs *)
  pcr_selection : int list;
  nonce : bytes;  (** the caller's value, covered by the signature *)
  signature : bytes;  (** by the AIK *)
  aik_public : Hyperenclave_crypto.Signature.public_key;
  aik_certificate : bytes;  (** EK signature over the AIK public key *)
  ek_public : Hyperenclave_crypto.Signature.public_key;
}

exception Unseal_failed of string

val manufacture :
  clock:Hyperenclave_hw.Cycles.t ->
  cost:Hyperenclave_hw.Cost_model.t ->
  rng:Hyperenclave_hw.Rng.t ->
  t
(** A fresh chip: unique EK, certified AIK, PCRs at zero. *)

val startup : t -> unit
(** Power-on / reset: PCRs return to zero.  Seal blobs and keys survive. *)

val pcrs : t -> Pcr.t
val pcr_extend : t -> index:int -> bytes -> unit

val extend_measurement : t -> index:int -> bytes -> bytes
(** Measure a blob (SHA-256) then extend; returns the measurement. *)

val quote : t -> nonce:bytes -> pcr_selection:int list -> quote

val verify_quote : quote -> expected_ek:Hyperenclave_crypto.Signature.public_key -> bool
(** Full chain: AIK certificate under the EK, then quote signature under
    the AIK, with the EK pinned to the manufacturer-published value. *)

val random : t -> int -> bytes
(** The TPM RNG (Sec. 3.3 uses it to generate [K_root]). *)

val seal : t -> pcr_selection:int list -> bytes -> bytes
(** Seal to the {e current} values of the selected PCRs; the blob is
    encrypted under a chip-internal storage key and may be stored
    anywhere.  It is an {!Hyperenclave_crypto.Authenc.seal} blob, the
    data plus {!Hyperenclave_crypto.Authenc.overhead} bytes, whose AAD
    is the policy (the selection and the digest of those PCRs); the
    policy itself is not stored. *)

val unseal : t -> pcr_selection:int list -> bytes -> bytes
(** The unsealer names the policy, as a TPM2 policy session does: the
    blob opens only under the selection it was sealed to, on the chip
    that sealed it, while those PCRs hold their sealing-time values.
    @raise Unseal_failed otherwise — a changed PCR, another selection
    (a subset, a reordering, [[]]), another chip's blob and a corrupt
    or truncated blob are one refusal. *)

val ek_public : t -> Hyperenclave_crypto.Signature.public_key

(** {1 Monotonic counters}

    NV counters survive reboots and only ever grow — the standard
    anti-rollback primitive for sealed state (the same one-way property
    PCR extends give the boot chain). *)

val counter_create : t -> name:string -> unit
(** Idempotent; a fresh counter starts at 0. *)

val counter_increment : t -> name:string -> int
(** Returns the new value. @raise Not_found for an unknown counter. *)

val counter_read : t -> name:string -> int
(** @raise Not_found for an unknown counter. *)
