(** Central table of simulated cycle costs.

    Every constant is either taken directly from the paper (Sec. 4.2 gives
    hypercall ~880 and syscall ~120 cycles on the authors' EPYC 7601; Table 1
    and Table 2 give end-to-end switch and exception costs) or calibrated so
    that the composed paths land near the paper's measurements.  Costs are
    carried in a record so tests and ablation benches can run with modified
    models. *)

type t = {
  (* --- transition primitives (Sec. 4.2) --- *)
  hypercall : int;  (** VMX non-root -> root -> non-root round trip (~880). *)
  syscall_ring : int;  (** SYSCALL/SYSRET ring switch (~120). *)
  vmexit : int;  (** one-way trap from guest to monitor. *)
  vminject : int;  (** event injection from monitor into the guest. *)
  (* --- world-switch state handling, calibrated against Table 1 --- *)
  enter_extra_gu : int;
  exit_extra_gu : int;
  enter_extra_hu : int;
  exit_extra_hu : int;
  enter_extra_p : int;
  exit_extra_p : int;
  (* --- SDK software path (uRTS+tRTS dispatch, fixed part) --- *)
  sdk_ecall_soft_gu : int;
  sdk_ecall_soft_hu : int;
  sdk_ecall_soft_p : int;
  sdk_ocall_soft_gu : int;
  sdk_ocall_soft_hu : int;
  sdk_ocall_soft_p : int;
  (* --- memory system --- *)
  mem_copy_per_byte_num : int;  (** numerator of cycles/byte for copies... *)
  mem_copy_per_byte_den : int;  (** ...as a rational (num/den). *)
  cache_hit : int;  (** LLC hit latency. *)
  cache_miss_dram : int;  (** DRAM access on an LLC miss (random pattern). *)
  dram_seq_miss : int;  (** effective miss cost under sequential prefetch. *)
  sme_seq_extra : int;  (** AES-XTS latency left visible under prefetch. *)
  mee_seq_extra : int;  (** MEE latency under prefetch (tree nodes cached). *)
  sme_miss_extra : int;  (** extra per-line cost of AES-XTS (AMD SME). *)
  mee_miss_extra : int;  (** extra per-line cost of AES-CTR + MAC (Intel). *)
  mee_tree_level : int;  (** per-level Merkle tree load on a random miss
      (uncached tree nodes: a DRAM access each). *)
  mee_tree_levels : int;  (** integrity-tree depth walked on a miss. *)
  epc_swap_page : int;  (** SGX EWB/ELDU software paging, per 4 KB page. *)
  tlb_hit : int;
  pt_level_access : int;  (** one page-table-entry load from memory. *)
  tlb_flush : int;
  tlb_shootdown : int;  (** INVLPG-style single-entry invalidation. *)
  (* --- exceptions (calibrated against Table 2) --- *)
  idt_dispatch : int;  (** in-enclave IDT vectoring (P-Enclave). *)
  iret : int;
  os_signal_delivery : int;  (** primary-OS two-phase signal upcall. *)
  aex_save : int;  (** asynchronous enclave exit: SSA state save. *)
  eresume_soft : int;  (** SDK-side ERESUME bookkeeping. *)
  exception_classify : int;  (** monitor-side exception triage on a trap. *)
  pf_handler_work : int;  (** body of a registered #PF handler (GC test). *)
  pte_update : int;  (** writing one PTE. *)
  monitor_pf_dispatch : int;  (** RustMonitor #PF routing before redelivery. *)
  pf_commit_handle : int;  (** demand-commit of a fresh EPC page (EDMM). *)
  ud_handler_work : int;  (** body of a trivial #UD handler (skip insn). *)
  ms_copy_in_per_kb : int;  (** uRTS copy into the marshalling buffer. *)
  ms_copy_out_per_kb : int;  (** copy back out of the marshalling buffer. *)
  sgx_ecall : int;  (** Table 1: measured SGX ECALL (14,432). *)
  sgx_ocall : int;  (** Table 1: measured SGX OCALL (12,432). *)
  sgx_eenter : int;  (** EENTER microcode cost on SGX silicon. *)
  sgx_eexit : int;
  sgx_aex : int;  (** SGX AEX microcode (SSA spill + flush). *)
  sgx_eresume : int;
  (* --- OS-level costs (Table 3 baselines, in cycles at 2.2 GHz) --- *)
  os_null_syscall : int;
  os_fork : int;
  os_ctxsw : int;
  os_mmap : int;
  os_page_fault : int;
  os_af_unix : int;
  (* --- crypto engines (software emulation inside the monitor) --- *)
  switchless_post : int;  (** enqueue + fence into the shared ring. *)
  switchless_wait : int;  (** expected wait for the worker to pick up and
      complete a small request (poll interval / 2 + execution). *)
  switchless_dispatch : int;  (** untrusted worker-side dispatch. *)
  ring_slot_dispatch : int;
      (** slot ring: the persistent in-enclave worker's per-slot dispatch.
          Slot boundaries sit at a fixed, pre-validated stride — one
          bounds check, one table lookup, one indirect call; no
          variable-length frame walk, no world switch. *)
  sha256_per_block : int;  (** per 64-byte block. *)
  aes_per_block : int;  (** per 16-byte block. *)
  tpm_command : int;  (** latency of one TPM command over the bus. *)
}

val default : t
(** Calibrated model: reproduces the paper's Tables 1-3 within a few
    percent and the figure shapes. *)

val copy_cost : t -> int -> int
(** [copy_cost m bytes] is the cycle cost of a [bytes]-long memory copy. *)

val no_overhead : t
(** A model in which everything costs zero; used to express the
    "no security protection" baselines. *)
