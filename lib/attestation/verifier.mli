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
      quote made for one challenge fails it for any other. *)

open Hyperenclave_monitor

type golden = {
  ek_public : Hyperenclave_crypto.Signature.public_key;
  boot_measurements : (string * bytes) list;
      (** component label -> expected SHA-256 (the event at
          {!Hyperenclave_monitor.Monitor.pcr_hapk} excluded; it binds
          hapk) *)
}

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
    against [golden] is accepted. *)
