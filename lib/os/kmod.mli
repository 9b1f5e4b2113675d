(** The hyper_enclave kernel module (Sec. 5.2).

    Loaded by the primary OS during boot: it measures and launches
    RustMonitor ("measured late launch"), persists the sealed [K_root]
    blob, and afterwards exposes the emulated privileged SGX operations to
    applications through [/dev/hyper_enclave] ioctls.  The module runs
    inside the untrusted OS: the monitor re-validates everything it
    passes. *)

open Hyperenclave_monitor

type t

val load :
  kernel:Kernel.t ->
  tpm:Hyperenclave_tpm.Tpm.t ->
  monitor:Monitor.t ->
  monitor_image:bytes ->
  boot_log:Monitor.boot_event list ->
  t
(** Measure the monitor image into its PCR, launch the monitor (loading
    any previously-sealed root key from disk, persisting a fresh one on
    first boot), and demote the kernel into the normal VM. *)

val monitor : t -> Monitor.t
val kernel : t -> Kernel.t

(** {1 /dev/hyper_enclave ioctls}

    Each ioctl crosses the ["os.ioctl"] fault site, then enters the
    monitor through the hypercall gate: the ["hypercall.dispatch"] site,
    crossed once per attempt before the monitor operation runs, with a
    transient fault there retried with backoff.  The monitor's refusals
    surface as [Monitor.Security_violation]. *)

val ioctl_create_enclave : t -> Sgx_types.secs -> Enclave.t

val ioctl_add_page :
  t ->
  Enclave.t ->
  vpn:int ->
  content:bytes ->
  perms:Hyperenclave_hw.Page_table.perms ->
  page_type:Sgx_types.page_type ->
  unit

val ioctl_add_tcs :
  t -> Enclave.t -> vpn:int -> entry_va:int -> nssa:int -> ssa_base_vpn:int -> unit

val ioctl_pin_range : t -> Process.t -> va:int -> len:int -> unit
(** The Sec. 5.3 pinning request: the named pages will never be swapped
    out or compacted for the life of the enclave.
    @raise Invalid_argument if any page is not resident (the uRTS mmaps
    with MAP_POPULATE first); in that case every pin taken by this call
    has been unwound — a failed ioctl does not leak pinned pages. *)

val unpin_range : Process.t -> va:int -> len:int -> unit
(** Release the pins {!ioctl_pin_range} took over the same range. *)

val ioctl_init_enclave :
  t ->
  Process.t ->
  Enclave.t ->
  sigstruct:Sgx_types.sigstruct ->
  ms_base:int ->
  ms_size:int ->
  unit
(** Resolve the pinned marshalling pages to frames and forward EINIT. *)

val ioctl_destroy_enclave : t -> Process.t -> Enclave.t -> unit
(** Forward EREMOVE and release the marshalling-buffer pins the module
    took at creation — their lifetime is the enclave's lifetime. *)
