(** Enclave page cache: the reserved physical pool plus per-frame metadata.

    RustMonitor "manages the reserved physical memory by maintaining a list
    of free pages" (Sec. 5.1).  The metadata here plays the role SGX's EPCM
    plays in hardware: every frame knows its owning enclave, page type and
    the enclave virtual page it backs, so aliasing (two mappings onto one
    enclave frame — Fig. 9a) and cross-enclave grabs are detectable. *)

type owner = Monitor | Enclave of int

type frame_info = {
  owner : owner;
  page_type : Sgx_types.page_type;
  vpn : int;  (** enclave virtual page backed by this frame *)
}

type t

exception Epc_exhausted

val create : base_frame:int -> nframes:int -> t

val alloc : t -> owner:owner -> page_type:Sgx_types.page_type -> vpn:int -> int
(** Take a frame and record its metadata. @raise Epc_exhausted. *)

val free : t -> int -> unit
(** Release a frame; clears metadata.  The caller must scrub contents. *)

val free_enclave : t -> enclave_id:int -> int list
(** Release every frame owned by the enclave; returns the frames so the
    monitor can scrub them. *)

val info : t -> int -> frame_info option
(** Metadata for a frame, [None] if free or out of pool. *)

val in_pool : t -> int -> bool
val base_frame : t -> int
val nframes : t -> int
val free_count : t -> int

val used_count : t -> int
(** Frames currently allocated (with live metadata); [used_count t +
    free_count t = nframes t] is an accounting invariant the checker
    re-validates after injected faults. *)

val used_by : t -> enclave_id:int -> int
(** Frames currently owned by the enclave. *)

val clock_hand : t -> int
(** Current position of the second-chance cursor. *)

val alloc_hint : t -> int
(** The free-list scan hint.  Together with {!clock_hand} and the
    per-frame reference bits this pins down everything allocation and
    victim selection depend on — lib/mc folds all three into canonical
    state hashes so two states that only look equal are never merged. *)

val referenced : t -> int -> bool
(** Whether the frame's second-chance reference bit is set. *)

val mark_referenced : t -> int -> unit
(** Give the frame a second chance: set its reference bit so the clock
    hand skips it once before considering it for eviction.  Called on
    allocation and whenever the monitor touches a page (commit, swap-in). *)

val find_victim :
  ?in_use:(int -> frame_info -> bool) ->
  t ->
  prefer_not:int option ->
  (int * frame_info) option
(** A regular (Pt_reg) enclave frame suitable for eviction, chosen by a
    clock-hand (second-chance) cursor over the frame range rather than
    hash-table insertion order, so multi-enclave pressure spreads
    evictions instead of repeatedly draining the oldest enclave.
    Frames for which [in_use] holds (e.g. SSA of a running vCPU, TCS
    with an active thread) and frames of [prefer_not] are skipped when
    possible, relaxing in that order if nothing else is evictable;
    control structures (SECS/TCS/SSA page types) are never evicted. *)

type snapshot

val snapshot : t -> snapshot
(** Capture frame metadata, the free map, the clock hand and reference
    bits — everything victim selection and allocation order depend on —
    for lib/mc DFS backtracking. *)

val restore : t -> snapshot -> unit
(** Restore in place; the [t] handle stays valid. *)
