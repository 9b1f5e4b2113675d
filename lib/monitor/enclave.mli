(** The in-monitor representation of one enclave.

    Everything here is RustMonitor's private state: the enclave's page
    table (created and owned by the monitor — the design decision that
    defeats page-table-based attacks, Sec. 3.2), its nested table for
    GU/P modes, the running measurement, TCS bookkeeping, and the
    marshalling-buffer binding.  The primary OS never sees any of it. *)

open Hyperenclave_hw

type lifecycle = Uninitialized | Initialized | Dead

type stats = {
  mutable ecalls : int;
  mutable ocalls : int;
  mutable aexs : int;
  mutable page_faults : int;
  mutable dyn_pages : int;  (** pages committed on demand (EDMM) *)
  mutable in_enclave_exceptions : int;  (** P-Enclave local deliveries *)
}

(** An in-enclave exception handler (P-Enclave, Sec. 4.3): returns [true]
    when the exception was handled and execution can continue. *)
type exn_handler = Sgx_types.exception_vector -> bool

(** Interrupt-frequency guard (Sec. 4.3: "P-Enclaves may also detect
    abnormal interrupt events by counting the frequency, before
    requesting RustMonitor to route them to the primary OS" — the defence
    against single-stepping/interrupt side channels). *)
type interrupt_guard = {
  window_cycles : int;  (** observation window *)
  threshold : int;  (** interrupts per window considered abnormal *)
  mutable window_start : int;
  mutable count : int;
  mutable alarms : int;  (** windows that crossed the threshold *)
}

type t = {
  id : int;
  secs : Sgx_types.secs;
  gpt : Page_table.t;
  npt : Page_table.t option;  (** None for HU-Enclaves (1-level paging) *)
  mutable lifecycle : lifecycle;
  mutable measurement_ctx : Hyperenclave_crypto.Sha256.ctx option;
  mutable mrenclave : bytes;
  mutable mrsigner : bytes;
  mutable isv_prod_id : int;
  mutable isv_svn : int;
  mutable tcs_list : Sgx_types.tcs list;
  mutable marshalling : (int * int) option;  (** VA base, size *)
  mutable handlers : (string * exn_handler) list;  (** P-mode whitelist *)
  mutable interrupt_guard : interrupt_guard option;
  mutable entered : bool;
  mutable return_va : int;  (** recorded at EENTER; EEXIT must match *)
  mutable regs : Vcpu.regs;  (** in-enclave register state (symbolic) *)
  stats : stats;
  self : t option;
      (** [Some] of this enclave, built once: what the monitor records as
          its vCPU's current enclave, so an entry allocates no box *)
}

val mode : t -> Sgx_types.operation_mode

val make : id:int -> secs:Sgx_types.secs -> t
(** Fresh enclave in [Uninitialized] state with empty tables (HU gets no
    NPT).  Measurement context seeded with the SECS fields, as ECREATE
    does. *)

val in_elrange : t -> va:int -> bool
val elrange_pages : t -> int

val in_marshalling : t -> va:int -> len:int -> bool
(** Whether [va, va+len) lies entirely inside the bound marshalling
    buffer. *)

val measure_chunk : t -> bytes -> unit
(** Extend the running measurement. @raise Invalid_argument after EINIT. *)

val peek_measurement : t -> bytes
(** Digest-so-far without freezing: finalizes a copy of the running
    context.  EINIT validates against this so a refused launch (bad
    token, bad marshalling list) leaves the enclave buildable.
    @raise Invalid_argument after the measurement is frozen. *)

val commit_measurement : t -> bytes -> unit
(** Freeze the measurement to a digest previously obtained from
    {!peek_measurement} — the success half of EINIT. *)

val register_handler : t -> vector:string -> exn_handler -> unit
(** P-Enclave only (checked by the monitor, not here). *)

val find_handler : t -> vector:string -> exn_handler option
val free_tcs : t -> Sgx_types.tcs option
(** First non-busy TCS. *)

val find_tcs : t -> vpn:int -> Sgx_types.tcs option
