type t = {
  hypercall : int;
  syscall_ring : int;
  vmexit : int;
  vminject : int;
  enter_extra_gu : int;
  exit_extra_gu : int;
  enter_extra_hu : int;
  exit_extra_hu : int;
  enter_extra_p : int;
  exit_extra_p : int;
  sdk_ecall_soft_gu : int;
  sdk_ecall_soft_hu : int;
  sdk_ecall_soft_p : int;
  sdk_ocall_soft_gu : int;
  sdk_ocall_soft_hu : int;
  sdk_ocall_soft_p : int;
  mem_copy_per_byte_num : int;
  mem_copy_per_byte_den : int;
  cache_hit : int;
  cache_miss_dram : int;
  dram_seq_miss : int;
  sme_seq_extra : int;
  mee_seq_extra : int;
  sme_miss_extra : int;
  mee_miss_extra : int;
  mee_tree_level : int;
  mee_tree_levels : int;
  epc_swap_page : int;
  tlb_hit : int;
  pt_level_access : int;
  tlb_flush : int;
  tlb_shootdown : int;
  idt_dispatch : int;
  iret : int;
  os_signal_delivery : int;
  aex_save : int;
  eresume_soft : int;
  exception_classify : int;
  pf_handler_work : int;
  pte_update : int;
  monitor_pf_dispatch : int;
  pf_commit_handle : int;
  ud_handler_work : int;
  ms_copy_in_per_kb : int;
  ms_copy_out_per_kb : int;
  sgx_ecall : int;
  sgx_ocall : int;
  sgx_eenter : int;
  sgx_eexit : int;
  sgx_aex : int;
  sgx_eresume : int;
  os_null_syscall : int;
  os_fork : int;
  os_ctxsw : int;
  os_mmap : int;
  os_page_fault : int;
  os_af_unix : int;
  switchless_post : int;
  switchless_wait : int;
  switchless_dispatch : int;
  ring_slot_dispatch : int;
  sha256_per_block : int;
  aes_per_block : int;
  tpm_command : int;
}

(* Calibration notes.
   Table 1 targets (cycles): EENTER/EEXIT = HU 1163/1144, GU 1704/1319,
   P 1649/1401; ECALL = HU 8440, GU 9480, P 9700; OCALL = HU 4120,
   GU 4920, P 5260.  The enter/exit extras are the residuals after the
   transition primitive (hypercall or ring switch); the SDK soft costs are
   the residuals after one enter plus one exit. *)
let default =
  {
    hypercall = 880;
    syscall_ring = 120;
    vmexit = 440;
    vminject = 150;
    enter_extra_gu = 824;
    exit_extra_gu = 439;
    enter_extra_hu = 1043;
    exit_extra_hu = 1024;
    enter_extra_p = 769;
    exit_extra_p = 521;
    sdk_ecall_soft_gu = 6457;
    sdk_ecall_soft_hu = 6133;
    sdk_ecall_soft_p = 6650;
    sdk_ocall_soft_gu = 1897;
    sdk_ocall_soft_hu = 1813;
    sdk_ocall_soft_p = 2210;
    (* ~0.12 cycles/byte: rep-movsb style bulk copy of uncached data. *)
    mem_copy_per_byte_num = 1;
    mem_copy_per_byte_den = 8;
    cache_hit = 40;
    dram_seq_miss = 45;
    sme_seq_extra = 63;
    mee_seq_extra = 90;
    cache_miss_dram = 180;
    sme_miss_extra = 60;
    mee_miss_extra = 250;
    mee_tree_level = 180;
    mee_tree_levels = 4;
    epc_swap_page = 25000;
    tlb_hit = 1;
    pt_level_access = 30;
    tlb_flush = 120;
    tlb_shootdown = 140;
    idt_dispatch = 60;
    iret = 58;
    os_signal_delivery = 2600;
    aex_save = 700;
    eresume_soft = 450;
    exception_classify = 800;
    pf_handler_work = 330;
    pte_update = 174;
    monitor_pf_dispatch = 176;
    pf_commit_handle = 600;
    ud_handler_work = 140;
    (* Fig. 7 calibration: extra uRTS copy into / out of the marshalling
       buffer, per KiB of payload. *)
    ms_copy_in_per_kb = 51;
    ms_copy_out_per_kb = 73;
    sgx_ecall = 14432;
    sgx_ocall = 12432;
    sgx_eenter = 3300;
    sgx_eexit = 3000;
    sgx_aex = 5500;
    sgx_eresume = 6029;
    (* Table 3 native baselines, converted at 2.2 GHz: null call 0.1195 us,
       fork 196.3 us, ctxsw 3.13 us, mmap 66,125 us (reported in the paper's
       odd unit; kept proportional), page fault 0.2433 us, AF_UNIX 5.73 us. *)
    os_null_syscall = 263;
    os_fork = 431_860;
    os_ctxsw = 6_886;
    os_mmap = 1_455_750;
    os_page_fault = 535;
    os_af_unix = 12_606;
    (* Switchless calls (Tian et al., SysTEX'18): request posted to a
       shared ring, executed by an untrusted worker thread; the enclave
       pays a fence + the expected worker pickup latency instead of two
       world switches. *)
    switchless_post = 260;
    switchless_wait = 1_450;
    switchless_dispatch = 420;
    (* Fixed-stride slot ring: the persistent in-enclave worker's
       per-slot dispatch — the slot boundaries are pre-validated at a
       fixed stride, so one bounds check, one table lookup, one indirect
       call; no variable-length frame walk, no world switch. *)
    ring_slot_dispatch = 110;
    sha256_per_block = 1200;
    aes_per_block = 60;
    tpm_command = 50_000;
  }

let copy_cost m bytes = bytes * m.mem_copy_per_byte_num / m.mem_copy_per_byte_den

let no_overhead =
  {
    default with
    hypercall = 0;
    syscall_ring = 0;
    vmexit = 0;
    vminject = 0;
    enter_extra_gu = 0;
    exit_extra_gu = 0;
    enter_extra_hu = 0;
    exit_extra_hu = 0;
    enter_extra_p = 0;
    exit_extra_p = 0;
    sdk_ecall_soft_gu = 0;
    sdk_ecall_soft_hu = 0;
    sdk_ecall_soft_p = 0;
    sdk_ocall_soft_gu = 0;
    sdk_ocall_soft_hu = 0;
    sdk_ocall_soft_p = 0;
    sme_miss_extra = 0;
    mee_miss_extra = 0;
    mee_tree_level = 0;
    epc_swap_page = 0;
    sgx_ecall = 0;
    sgx_ocall = 0;
    sgx_eenter = 0;
    sgx_eexit = 0;
    sgx_aex = 0;
    sgx_eresume = 0;
    ring_slot_dispatch = 0;
  }
