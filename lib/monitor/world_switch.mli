(** World-switch cost composition (Sec. 4, Fig. 6, Table 1).

    GU- and P-Enclaves enter/exit through hypercalls (mode switch, ~880
    cycles); HU-Enclaves through SYSCALL/SYSRET (ring switch, ~120 cycles)
    plus an address-space switch.  On top of the transition primitive, each
    direction pays mode-specific state handling: vCPU save/restore, GPT and
    NPT swaps, and the TLB flush that Sec. 6 requires on every world
    switch.  The extras are calibrated so composed costs land on Table 1;
    the {e ordering} (HU < P < GU on entry, HU < GU < P on exit) is
    structural. *)

open Hyperenclave_hw

val transition_cost : Cost_model.t -> Sgx_types.operation_mode -> int
(** The raw privilege transition: hypercall for GU/P, ring switch for HU. *)

val eenter_cost : Cost_model.t -> Sgx_types.operation_mode -> int
val eexit_cost : Cost_model.t -> Sgx_types.operation_mode -> int

val aex_cost : Cost_model.t -> Sgx_types.operation_mode -> int
(** Asynchronous enclave exit: trap to monitor, SSA spill, switch out. *)

val eresume_cost : Cost_model.t -> Sgx_types.operation_mode -> int
(** ERESUME hypercall/syscall: restore SSA state and re-enter. *)

val sdk_ecall_soft : Cost_model.t -> Sgx_types.operation_mode -> int
(** Fixed uRTS+tRTS software path per ECALL (dispatch tables, TCS binding,
    stack setup) — the part of Table 1's ECALL numbers that is not the two
    transitions. *)

val sdk_ocall_soft : Cost_model.t -> Sgx_types.operation_mode -> int

val retry_backoff_cost : Cost_model.t -> attempt:int -> int
(** Simulated cycles the SDK/kernel module charge before retry attempt
    [attempt] (numbered from 1) after a transient fault: exponential in
    the attempt, capped at 64 context switches. *)
