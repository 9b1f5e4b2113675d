(** Behavioural model of Intel SGX1 — the paper's comparison baseline.

    Matches the architecture the paper contrasts against (Sec. 2.1, 3.2,
    7):
    - edge calls cost what Table 1 measured on the authors' Xeon E3-1270
      v6 (ECALL 14,432 / OCALL 12,432 cycles);
    - exceptions take an AEX plus the two-phase handling of Table 2
      (no in-enclave delivery: SGX1 enclaves cannot see their own
      exceptions);
    - the EPC is bounded (93 MB usable) and overflowing pages are swapped
      by EWB/ELDU at kernel cost;
    - the enclave's page tables are managed by the {e untrusted} OS, so
      the OS can clear present bits and observe the enclave's page-access
      trace — the controlled-channel attack (Xu et al.) that
      HyperEnclave's monitor-owned tables close off.  {!os_unmap_page} /
      {!fault_trace} expose exactly that capability to the security
      tests;
    - no page-permission changes after EINIT (the paper could not run the
      GC experiment on its SGX1 part; {!emodpr} raises accordingly). *)

open Hyperenclave_hw
open Hyperenclave_monitor

exception Sgx_error of string
exception Unsupported of string
(** SGX1 restriction hit (e.g. EDMM operations). *)

type platform

val create_platform :
  clock:Cycles.t ->
  cost:Cost_model.t ->
  rng:Rng.t ->
  epc_bytes:int ->
  platform

type enclave

type handler = enclave -> bytes -> bytes

val create_enclave :
  platform ->
  code_seed:string ->
  signer:Hyperenclave_crypto.Signature.private_key ->
  ecalls:(int * handler) list ->
  ocalls:(int * (bytes -> bytes)) list ->
  enclave

val mrenclave : enclave -> bytes
val platform_of : enclave -> platform
val clock : platform -> Cycles.t

val ecall : enclave -> id:int -> ?data:bytes -> unit -> bytes
(** Full SGX edge-call cost plus a direct copy of the payload. *)

val ocall : enclave -> id:int -> ?data:bytes -> unit -> bytes
(** Only valid while inside an ECALL handler. *)

val compute : enclave -> int -> unit

val touch_page : enclave -> vpn:int -> unit
(** Access one enclave page: EPC-resident accounting; beyond the EPC limit
    the model pays EWB/ELDU swap costs and the faulting page number leaks
    into {!fault_trace}. *)

val raise_exception : enclave -> Sgx_types.exception_vector -> unit
(** AEX -> OS signal -> internal handler ECALL -> ERESUME (Table 2). *)

val register_exception_handler :
  enclave -> vector:string -> (Sgx_types.exception_vector -> bool) -> unit

val interrupt : enclave -> unit
(** Timer interrupt: AEX + ERESUME. *)

val emodpr : enclave -> vpn:int -> unit
(** @raise Unsupported — SGX1 has no EDMM (Sec. 7.2's footnote about the
    GC benchmark). *)

val getkey : enclave -> Sgx_types.key_name -> bytes
val seal : enclave -> bytes -> bytes
(** An {!Hyperenclave_crypto.Authenc.seal} blob under the MRENCLAVE seal
    key with an empty AAD: the data plus
    {!Hyperenclave_crypto.Authenc.overhead} bytes. *)

val unseal : enclave -> bytes -> bytes
(** @raise Hyperenclave_crypto.Authenc.Authentication_failure for a
    foreign or damaged blob. *)

(** {1 The untrusted OS's powers (for the controlled-channel contrast)} *)

val os_unmap_page : enclave -> vpn:int -> unit
(** The OS clears the present bit of an enclave PTE — legal in SGX's
    design; the next enclave access faults visibly. *)

val fault_trace : platform -> int list
(** Page numbers of every enclave fault the OS observed (newest first). *)

val resident_pages : platform -> int
val swap_count : platform -> int
