(** Remote-attestation verifier (Sec. 3.3, Fig. 4).

    The relying party holds: the manufacturer-published TPM EK public key,
    a golden list of boot-component measurements (CRTM, BIOS, grub,
    kernel, initramfs, hypervisor), and an enclave policy (expected
    MRENCLAVE and/or MRSIGNER).  A HyperEnclave quote has two halves:
    the platform quote, one TPM quote the monitor took at launch over
    the boot PCRs and hapk's PCR, and a fresh report signed under hapk
    (the ems), whose [report_data] carries the challenger's freshness.
    The TPM quote's own nonce is not read.  Given a quote and the [report_data] the caller expects, it
    checks, in order:

    + the TPM quote's signature chain (AIK certified by the pinned EK);
    + that every event of the quote's log sits at a quoted PCR
      ({!Hyperenclave_monitor.Monitor.quote_pcr_selection}) and that
      replaying the log reproduces the quoted PCR digest (so the log is
      the one the TPM vouches for);
    + that every boot event matches the golden measurement — any tampered
      boot component fails here;
    + that the hapk in the quote is the one measured by the single event
      at {!Hyperenclave_monitor.Monitor.pcr_hapk} — the link that lets
      the monitor's key speak for this platform;
    + the pinned hapk, when the caller gives one;
    + the enclave measurement signature (ems) under hapk;
    + the enclave policy;
    + that the report's whole 64-byte [report_data] is the expected
      value, zero-padded as EREPORT pads it — the freshness check: a
      quote made for one challenge fails it for any other.

    The first four checks read only the quote's platform half — its
    hapk, TPM quote and event log — which a monitor takes once per boot
    (§3.3), so a golden appraises each platform once: see {!golden}. *)

open Hyperenclave_monitor

type golden
(** The relying party's reference for one platform build: the pinned
    TPM EK public key and the golden boot measurements.

    A golden also remembers one platform half (hapk, TPM quote and
    event log): that of the last quote it verified.  A golden pins one
    chip's EK, and a monitor takes one TPM quote per boot, so one slot
    holds the platform a golden sees.  A later quote whose half is
    structurally equal to the remembered one skips the TPM chain, the
    log replay, the golden compare and the hapk binding — they read
    nothing else, so they would pass again — and runs only the hapk
    pin, the ems, the policy and the [report_data] checks, in that
    order.  A half is remembered only when its whole quote verifies: a
    failure is never remembered, and neither is a half whose quote
    failed a later check.  A verified quote with another half replaces
    the remembered one, which is then appraised in full next time.  So
    a golden is mutable: share one per platform (or fleet node) among
    its verifiers, on one domain at a time. *)

type policy = {
  expected_mrenclave : bytes option;
  expected_mrsigner : bytes option;
  allow_debug : bool;
}

type failure =
  | Bad_tpm_signature
  | Event_log_mismatch  (** replayed PCRs don't match the quoted digest *)
  | Boot_component_mismatch of string
  | Hapk_not_measured
  | Hapk_mismatch
      (** the quote verifies but was produced by a {e different} monitor
          than the pinned trust anchor — an honestly-booted sibling node
          cannot answer for the one the verifier addressed *)
  | Bad_ems
  | Policy_violation of string
  | Report_data_mismatch
      (** every other check passed, but the signed report answers
          another challenge: a replayed or spliced quote *)

type result = Ok of Sgx_types.report | Error of failure

val pp_failure : Format.formatter -> failure -> unit

val golden_of_boot_log :
  ek_public:Hyperenclave_crypto.Signature.public_key ->
  Monitor.boot_event list ->
  golden
(** Build the golden reference from a trusted build's event log — what a
    deployer records at provisioning time.  The event at
    {!Hyperenclave_monitor.Monitor.pcr_hapk} is dropped: it names the
    booted monitor's key, not a component. *)

val golden_of_measurements :
  ek_public:Hyperenclave_crypto.Signature.public_key ->
  (string * bytes) list ->
  golden
(** A golden from component label -> expected SHA-256 pairs.  It
    remembers nothing: a golden never inherits another's accepted
    platforms. *)

val boot_measurements : golden -> (string * bytes) list
(** The golden's component label -> expected SHA-256 pairs. *)

val verify :
  golden:golden ->
  policy:policy ->
  ?expected_hapk:Hyperenclave_crypto.Signature.public_key ->
  report_data:bytes ->
  Monitor.quote ->
  result
(** [report_data] is the value the caller's challenge put in the report
    (at most 64 bytes); a mismatch is {!Report_data_mismatch}, checked
    last.  [expected_hapk] is the verifying party's trust anchor for a {e
    specific} monitor: in a multi-monitor fleet every node derives its
    own attestation key, so golden boot measurements alone no longer
    identify one machine — a verifier that knows which node it addressed
    pins that node's hapk and gets {!Hapk_mismatch} for a quote signed by
    any other (even honestly booted) monitor.  Omitting it keeps the
    single-platform behaviour: any monitor whose boot chain replays
    against [golden] is accepted.  A quote that verifies leaves its
    platform half in [golden] (see {!golden}); the result never depends
    on what [golden] remembers. *)
