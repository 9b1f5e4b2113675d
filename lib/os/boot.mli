(** The measured boot chain (Sec. 3.3, Fig. 3).

    CRTM -> BIOS -> grub -> kernel -> initramfs, each component hashed and
    extended into its TPM PCR before it runs.  The produced event log is
    what a remote verifier later replays against the quote.  The
    RustMonitor image itself is measured by the kernel module
    ({!Kmod.load}), not here — that is the "late" part of measured late
    launch. *)

type component = { name : string; pcr_index : int; image : bytes }

val default_chain : Hyperenclave_hw.Rng.t -> component list
(** A deterministic five-component chain (CRTM, BIOS, grub, kernel,
    initramfs) whose images derive from the RNG seed, so tests can boot
    two platforms with identical or deliberately differing firmware. *)

val tamper : component list -> name:string -> component list
(** Flip a byte in the named component — an "evil maid" modification whose
    effect on the quote the tests check.
    @raise Invalid_argument if no component of the chain has that name. *)

val measured_boot :
  Hyperenclave_tpm.Tpm.t ->
  component list ->
  Hyperenclave_monitor.Monitor.boot_event list
(** Run the chain: measure and extend each component in order; returns the
    event log. *)
