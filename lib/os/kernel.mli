(** The primary OS kernel.

    Untrusted by the monitor and the enclaves; still in charge of process
    scheduling, its own page tables, swapping, signals and devices
    (Sec. 3.1).  Before {!demote} it runs natively (1-level translation);
    afterwards it runs inside the normal VM under the monitor's nested
    table, which is the only change it could observe. *)

open Hyperenclave_hw

exception Segfault of { pid : int; va : int }

type swap_result = Swapped | Pinned_refused

type t

val create :
  clock:Cycles.t ->
  cost:Cost_model.t ->
  rng:Rng.t ->
  mem:Phys_mem.t ->
  cpu:Mmu.t ->
  iommu:Iommu.t ->
  os_base_frame:int ->
  os_nframes:int ->
  t

val clock : t -> Cycles.t
val cost : t -> Cost_model.t
val mem : t -> Phys_mem.t
val cpu : t -> Mmu.t
val iommu : t -> Iommu.t

val demote : t -> npt:Page_table.t -> unit
(** Called by the kernel module after RustMonitor launches: from now on
    every process (and the kernel) runs under the given nested table. *)

val demoted : t -> bool

val with_translation : t -> nested:bool -> (unit -> 'a) -> 'a
(** Run [f] with the current process translated natively ([nested:false])
    or under the normal VM's nested table ([nested:true], requires
    {!demote} to have happened).  The Table 3 / Fig. 10 virtualization-
    overhead comparison is exactly this toggle. *)

(** {1 Processes} *)

val spawn : t -> Process.t
(** fork+exec; charges [os_fork]. *)

val exit_process : t -> Process.t -> unit
(** Free every frame still mapped. *)

val switch_to : t -> Process.t -> unit
(** Context switch onto the CPU; charges [os_ctxsw] and installs the
    process tables (plus the nested table once demoted). *)

val current : t -> Process.t option

(** {2 Round-robin scheduling}

    The primary OS "is still in charge of process scheduling" (Sec. 3.1);
    the run queue is a plain round robin with a context switch charged per
    rotation. *)

val enqueue : t -> Process.t -> unit
(** Add to the tail of the run queue (idempotent per process). *)

val dequeue : t -> Process.t -> unit

val schedule : t -> Process.t option
(** Rotate: the current process (if queued) goes to the back, the head
    runs next and is installed on the CPU.  [None] on an empty queue. *)

val mmap : t -> Process.t -> len:int -> populate:bool -> int
(** Reserve (and with [populate], back) a virtual range; returns its base.
    Charges [os_mmap] scaled to the native LMBench cost. *)

val brk_grow : t -> Process.t -> len:int -> int
(** Extend the heap (demand-paged); returns the old break. *)

val proc_read : t -> Process.t -> va:int -> len:int -> bytes
(** Read through the process translation, demand-paging and swapping-in as
    needed.  @raise Segfault for unmapped regions,
    @raise Mmu.Npt_violation if the kernel's own PTEs point into reserved
    memory (requirement R-1 firing). *)

val proc_write : t -> Process.t -> va:int -> bytes -> unit

val resolve_frame : t -> Process.t -> vpn:int -> int
(** Present-frame lookup (no fault handling) — what the kernel module uses
    to collect pinned marshalling frames, and the SDK's ring legs to walk
    them.  It allocates nothing.
    @raise Not_found when [vpn] has no present PTE. *)

val map_alias : t -> Process.t -> vpn:int -> frame:int -> unit
(** Install an arbitrary PTE in a process table — the primitive a
    {e malicious} kernel uses for mapping attacks (Fig. 9b).  Exposed so
    the security tests can mount the attack and watch it fail. *)

(** {1 Swapping (Sec. 3.2's synchronization challenge)} *)

val swap_out : t -> Process.t -> vpn:int -> swap_result
(** Evict a resident page to the swap store — unless it is pinned. *)

val swapped_count : t -> int

(** {1 Services} *)

val null_syscall : t -> unit
val deliver_signal : t -> unit
(** Two-phase exception upcall cost ([os_signal_delivery]). *)

val af_unix_roundtrip : t -> unit

val disk_store : t -> key:string -> bytes -> unit
val disk_load : t -> key:string -> bytes option
val disk_delete : t -> key:string -> unit

val pf_trace : t -> (int * int) list
(** (pid, vpn) of every process fault the kernel handled — visible to the
    kernel by design for its own processes; the point of HyperEnclave is
    that {e enclave} faults never show up here. *)
