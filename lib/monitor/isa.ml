open Hyperenclave_hw

type t = X86_64 | Armv8 | Riscv_h

let all = [ X86_64; Armv8; Riscv_h ]

let name = function
  | X86_64 -> "x86-64 (AMD SVM)"
  | Armv8 -> "ARMv8-A (EL2)"
  | Riscv_h -> "RISC-V (H extension)"

let monitor_mode = function
  | X86_64 -> "VMX root mode"
  | Armv8 -> "EL2"
  | Riscv_h -> "HS-mode"

let secure_mode isa mode =
  match (isa, mode) with
  | X86_64, Sgx_types.GU -> "guest ring-3 (nested paging)"
  | X86_64, Sgx_types.HU -> "host ring-3 (1-level paging)"
  | X86_64, Sgx_types.P -> "guest ring-0 (own IDT + level-1 table)"
  | Armv8, Sgx_types.GU -> "EL0 under stage-2 translation"
  | Armv8, Sgx_types.HU -> "EL0 alongside the monitor (stage-1 only)"
  | Armv8, Sgx_types.P -> "EL1 (own vector table + stage-1 table)"
  | Riscv_h, Sgx_types.GU -> "VU-mode under G-stage translation"
  | Riscv_h, Sgx_types.HU -> "U-mode under HS (single-stage)"
  | Riscv_h, Sgx_types.P -> "VS-mode (own stvec + satp)"

let supports_flexible_modes _ = true

(* Projection basis: ARM EL2 trap round trips measure well under half a
   VMX transition on comparable cores; RISC-V H-extension traps (on the
   cores with published numbers) land between ARM and x86. *)
let transition_factor = function
  | X86_64 -> 1.0
  | Armv8 -> 0.55
  | Riscv_h -> 0.75

let scale_cost_model isa (m : Cost_model.t) =
  let f = transition_factor isa in
  let s v = int_of_float (float_of_int v *. f) in
  {
    m with
    hypercall = s m.hypercall;
    vmexit = s m.vmexit;
    vminject = s m.vminject;
    enter_extra_gu = s m.enter_extra_gu;
    exit_extra_gu = s m.exit_extra_gu;
    enter_extra_hu = s m.enter_extra_hu;
    exit_extra_hu = s m.exit_extra_hu;
    enter_extra_p = s m.enter_extra_p;
    exit_extra_p = s m.exit_extra_p;
    aex_save = s m.aex_save;
  }
