(** The trusted execution environment handed to in-enclave code.

    An ECALL handler is an OCaml closure standing in for the enclave's
    trusted code; everything it may legitimately do goes through this
    record (memory inside ELRANGE or the marshalling buffer, OCALLs,
    keys, sealing, attestation, page-permission changes, in-enclave
    exception handling).  Every operation charges simulated cycles through
    the monitor, so workload closures written against [Tenv] produce the
    paper's cost behaviour for whichever operation mode the enclave was
    created in. *)

open Hyperenclave_hw
open Hyperenclave_monitor

type t = {
  mode : Sgx_types.operation_mode;
  clock : Cycles.t;
  cost : Cost_model.t;
  read : va:int -> len:int -> bytes;
  write : va:int -> bytes -> unit;
  touch : va:int -> write:bool -> unit;
      (** translation + fault behaviour only, no data transfer — what the
          memory-bound workloads use *)
  malloc : int -> int;  (** bump allocator over the demand-paged heap *)
  heap_base : int;
  ocall : id:int -> ?data:bytes -> Edge.direction -> bytes;
  ocall_switchless : id:int -> ?data:bytes -> unit -> bytes;
      (** switchless call (Tian et al., cited in Sec. 4): the request goes
          through a shared ring in the marshalling buffer to an untrusted
          worker thread — no EEXIT/EENTER.  Orders of magnitude cheaper
          for chatty I/O, at the cost of a busy worker core.  Out-calls
          have no batched form: each one is an [ocall] or an
          [ocall_switchless]. *)
  compute : int -> unit;  (** charge pure computation cycles *)
  getkey : Sgx_types.key_name -> bytes;
  report : report_data:bytes -> Sgx_types.report;
  verify_report : Sgx_types.report -> bool;
      (** EVERIFYREPORT: check that a report was produced by an enclave on
          {e this} platform — the primitive under local attestation
          (enclave-to-enclave trust without going through the TPM) *)
  seal : bytes -> bytes;
      (** [sgx_seal_data] under the MRENCLAVE seal key: an
          {!Hyperenclave_crypto.Authenc.seal} blob, the data plus
          {!Hyperenclave_crypto.Authenc.overhead} bytes, with an empty
          AAD *)
  unseal : bytes -> bytes;
      (** @raise Hyperenclave_crypto.Authenc.Authentication_failure for
          a blob this enclave did not seal, or a damaged one *)
  seal_versioned : bytes -> bytes;
      (** rollback-protected sealing: the blob is bound (as its AAD) to a
          fresh value of the enclave's TPM monotonic counter, so every
          new seal invalidates all older blobs *)
  unseal_versioned : bytes -> bytes;
      (** opens under the counter's current value.
          @raise Hyperenclave_crypto.Authenc.Authentication_failure for
          a stale blob (a rollback attempt) exactly as for a tampered
          one *)
  set_page_perms : vpn:int -> perms:Page_table.perms -> grant:bool -> unit;
      (** P-Enclaves update their own table; GU/HU issue
          EMODPE/EMODPR hypercalls (Sec. 4.3) *)
  register_exception_handler : vector:string -> Enclave.exn_handler -> unit;
  raise_exception : Sgx_types.exception_vector -> unit;
      (** execute a faulting instruction; returns after the exception has
          been handled through whichever path the mode dictates *)
  interrupt_now : unit -> unit;
      (** a device/timer interrupt arrives at this instant: AEX to the
          primary OS, service it, ERESUME (Sec. 4.1) *)
  arm_interrupt_guard : window_cycles:int -> threshold:int -> unit;
      (** P-Enclave side-channel defence (Sec. 4.3): count interrupt
          arrivals per window and flag abnormal rates *)
  interrupt_alarms : unit -> int;
  ms_read : off:int -> len:int -> bytes;  (** marshalling-buffer window *)
  ms_write : off:int -> bytes -> unit;
  ms_base : int;
  ms_size : int;
  enclave_id : int;
}

type handler = t -> bytes -> bytes
(** An ECALL entry point: marshalled input to marshalled output. *)
