open Hyperenclave_hw
open Sgx_types

let transition_cost (m : Cost_model.t) = function
  | GU | P -> m.hypercall
  | HU -> m.syscall_ring

let eenter_cost (m : Cost_model.t) mode =
  transition_cost m mode
  +
  match mode with
  | GU -> m.enter_extra_gu
  | HU -> m.enter_extra_hu
  | P -> m.enter_extra_p

let eexit_cost (m : Cost_model.t) mode =
  transition_cost m mode
  +
  match mode with
  | GU -> m.exit_extra_gu
  | HU -> m.exit_extra_hu
  | P -> m.exit_extra_p

let aex_cost (m : Cost_model.t) mode =
  (* Trap one way into the monitor, spill the SSA, switch the world out. *)
  (match mode with GU | P -> m.vmexit | HU -> m.syscall_ring)
  + m.aex_save + eexit_cost m mode

let eresume_cost (m : Cost_model.t) mode = m.eresume_soft + eenter_cost m mode

let sdk_ecall_soft (m : Cost_model.t) = function
  | GU -> m.sdk_ecall_soft_gu
  | HU -> m.sdk_ecall_soft_hu
  | P -> m.sdk_ecall_soft_p

let sdk_ocall_soft (m : Cost_model.t) = function
  | GU -> m.sdk_ocall_soft_gu
  | HU -> m.sdk_ocall_soft_hu
  | P -> m.sdk_ocall_soft_p

(* Backoff charged between retry attempts on transient faults (EPC
   pressure, TPM busy, interrupted world switches): an OS context switch
   doubling per attempt, capped so a hostile schedule cannot stall the
   simulated clock unboundedly. *)
let retry_backoff_cost (m : Cost_model.t) ~attempt =
  m.os_ctxsw * (1 lsl min (max attempt 0) 6)
