(** The untrusted runtime (SDK uRTS) and enclave loader (Sec. 3.4, 5.3).

    Mirrors [libsgx_urts.so] as retrofitted by HyperEnclave:

    - {!create} plays the loader + [sgx_sign]: builds the enclave image
      page by page through the kernel module's ioctls, predicts MRENCLAVE
      with {!Measure.expected}, signs the SIGSTRUCT, mmaps the
      marshalling buffer with MAP_POPULATE, pins it, and EINITs.
    - {!ecall} runs the full edge-call path of Fig. 6 with the
      marshalling-buffer copies of Fig. 7; OCALLs issued by the enclave
      come back through the registered untrusted handlers.
    - the slot ring ({!create_ring} ... {!ring_dispatch}) is the one
      batched call path: K staged ECALLs served switchlessly by a
      persistent in-enclave worker.
    - exceptions raised inside the enclave follow the mode-appropriate
      path: in-enclave delivery for P-Enclaves, the AEX + signal +
      internal-handler-ECALL + ERESUME two-phase dance otherwise. *)

open Hyperenclave_hw
open Hyperenclave_monitor
open Hyperenclave_os

type config = {
  mode : Sgx_types.operation_mode;
  debug : bool;
  elrange_pages : int;  (** total enclave virtual range, pages *)
  code_pages : int;
  data_pages : int;
  tcs_count : int;  (** >= 2 so the two-phase exception flow has a free
                        TCS while the faulted one is parked *)
  nssa : int;
  ms_bytes : int;  (** marshalling buffer size *)
  code_seed : string;  (** stands for the code identity: different seed,
                           different MRENCLAVE *)
  isv_prod_id : int;
  isv_svn : int;
}

val default_config : Sgx_types.operation_mode -> config

exception Enclave_error of string

type t

val create :
  kmod:Kmod.t ->
  proc:Process.t ->
  rng:Rng.t ->
  signer:Hyperenclave_crypto.Signature.private_key ->
  config:config ->
  ecalls:(int * Tenv.handler) list ->
  ocalls:(int * (bytes -> bytes)) list ->
  t
(** ECREATE, EADD every page, map and pin the marshalling buffer, EINIT.
    A refused build leaves no enclave, EPC frame or pin behind: a bad
    [ms_bytes] is refused before ECREATE, and a later failure EREMOVEs
    the half-built enclave and re-raises.  The buffer's mapping stays,
    as after {!destroy}: the model has no munmap.  Every handler call,
    ECALL or ring slot, gets the handle's one {!Tenv.t}, built on the
    first call. *)

val ecall :
  t -> id:int -> ?data:bytes -> direction:Edge.direction -> unit -> bytes
(** @raise Enclave_error on unknown id or no free TCS. *)

val ecall_no_ms :
  t -> id:int -> ?data:bytes -> direction:Edge.direction -> unit -> bytes
(** Fig. 7's baseline variant: the same call without the marshalling
    buffer legs (direct-copy semantics, as plain SGX would do). *)

(** {2 Slot ring: sharded switchless ECALL dispatch}

    The SDK's one batched call path: a fixed-stride slot ring per
    (tenant, shard) in the pinned marshalling buffer, used as
    [create_ring] once, then per batch [ring_stage] x K,
    [ring_dispatch], [ring_reply_offset] / [ring_reply_length] and
    [ring_reset].  The ring slot
    {e is} the envelope: callers stage payloads straight into it, and
    the staging images are recycled across flushes.  Per slot a dispatch
    allocates only the worker's private copy of the slot body and what
    the handler returns.  The dispatch is
    switchless: no TCS take, no EENTER/EEXIT, no SDK soft path; one
    post fence plus [ring_slot_dispatch] cycles per slot.  Consequence:
    ring handlers must not OCALL (typed "OCALL outside an ECALL"
    refusal).

    {b Slot layout.}  A segment is [[count:8][slot_0][slot_1]...], each
    slot [[id:8][len:8][payload area]].  The payload area is [slot_bytes]
    wide, plus {!tag_bytes} on a ring with a {!channel}.  Handler inputs
    and replies are at most [slot_bytes] either way (a longer reply
    fails a ring without a channel, and its channel refuses it on a ring
    with one); on a channel ring both length words hold the framed
    length (ciphertext + tag). *)

type opened =
  | Opened  (** the slot passed: its handler runs on the opened copy *)
  | Refused of bytes
      (** the slot failed the channel's check: its handler does not run,
          and its reply slot carries these bytes (at most the payload
          area) instead of a sealed reply.  The ring's other slots are
          still served. *)

type channel = {
  open_slot : slot:int -> ecall_id:int -> bytes -> tag:bytes -> opened;
      (** Check slot [slot]'s request, whose [ecall_id] is the slot's own
          id word (the one the worker dispatches on), and on success
          open it in place.  The worker has already copied the ciphertext
          into the private buffer (its exact length) and the tag into
          [tag], so the host cannot change what is checked. *)
  seal_slot : bytes -> dst:bytes -> dst_off:int -> int;
      (** Seal the handler reply of the slot opened last into the reply
          image at [dst_off] and return the framed length, at most
          [slot_bytes + tag_bytes].  The worker hands over every reply,
          whatever its length: one longer than [slot_bytes] cannot be
          sealed into the slot, and the channel writes a refusal there
          instead (at most the payload area), so it costs its own slot
          only.  (Without a channel, such a reply fails the ring.) *)
}
(** The enclave side of an attested channel, run by the in-enclave
    worker during {!ring_dispatch} on the calling clock (each slot's
    share is in {!ring_slot_cycles}): the slots of a channel ring carry
    frames in both directions, so no plaintext crosses the shared
    segments.  A retried slot re-runs its callbacks from the top, as it
    re-runs its handler: a channel that consumes state on an open (a
    replay window) must open the same slot again. *)

val tag_bytes : int
(** 32: room every slot of a channel ring keeps for its frame's tag. *)

type ring

val create_ring :
  ?channel:channel ->
  t ->
  shard:int ->
  shards:int ->
  slots:int ->
  slot_bytes:int ->
  ring
(** Carve shard [shard] of [shards] equal segments out of the input and
    output marshalling regions and build its staging images, which start
    16 slots wide and double on demand up to [slots].  [slot_bytes] must
    be a positive multiple of 8.  Without [channel], slots carry the
    payloads as staged and replies as the handlers return them.
    @raise Enclave_error when [slots] full slots and the count word
    exceed the per-shard segment — the fix is a larger [ms_bytes]. *)

val ring_stage : ring -> ecall_id:int -> len:int -> int
(** Claim the next slot for a [len]-byte payload of ECALL [ecall_id] and
    return the payload's byte offset into {!ring_buf}: the caller writes
    the payload directly there (on a channel ring, a frame: ciphertext,
    then tag).  Staging may grow the images, so fetch {!ring_buf} after
    staging.
    @raise Enclave_error when the ring is full or [len] exceeds the
    payload area. *)

val ring_dispatch : ring -> unit
(** The ring's whole round trip, on the calling (core) clock: publish
    the staged image into the shard's pinned request segment (the
    [sdk.ms_copy_in] fault site and the marshalling-in rate), have the
    persistent in-enclave worker serve every staged slot in order,
    framing replies at the same stride in the shard's reply segment,
    and read the reply image back into {!ring_reply_buf} (the
    [sdk.ms_copy_out] fault site and the marshalling-out rate).  Each
    leg runs in its own standard transient-fault retry loop.  The
    serving leg's retry resumes at the slot that faulted: handlers of
    already-served slots do not run again, the faulted slot's channel
    callbacks and handler re-run from their top.  Permanent faults and
    exhausted retries propagate, failing the whole ring.
    @raise Enclave_error on an unknown ECALL id, a reply longer than
    [slot_bytes] on a ring without a channel, a channel-ring slot
    shorter than a tag, or a reply count that disagrees with the staged
    count. *)

val ring_reply_offset : ring -> slot:int -> int
(** Where a served slot's reply payload starts inside
    {!ring_reply_buf}.
    @raise Enclave_error on an out-of-range slot. *)

val ring_reply_length : ring -> slot:int -> int
(** The framed length of a served slot's reply, read from its length
    word: the reply is [ring_reply_buf[off, off + length)] with [off]
    from {!ring_reply_offset}.  Neither allocates.
    @raise Enclave_error on an out-of-range slot or a length word past
    the slot's payload area. *)

val ring_slot_cycles : ring -> slot:int -> int
(** The cycles {!ring_dispatch} spent on served slot [slot]: its
    fixed-stride dispatch price plus its channel open, handler, reply
    copy and seal, in the attempt that served it.  The ring's other
    cycles (publish, post fence, segment walks, worker context entry
    and exit, reply store, read-back, a faulted attempt) belong to no
    slot.  The scheduler places these per-slot costs on the cores that
    claim the slots.  Recorded in place, with no allocation per slot;
    valid until {!ring_reset}.
    @raise Enclave_error for a slot not served yet. *)

val ring_join_cycles : ring -> int
(** What a second worker pays to join the ring's slots: its own post
    fence, one worker context entry and exit (2 TLB flushes, as
    {!Hyperenclave_monitor.Monitor.with_worker} pays) and one DRAM miss
    for the ring cursor's cache line. *)

val ring_claim_cycles : ring -> int
(** What each slot claim pays while two workers share the ring's
    cursor: one DRAM miss for its cache line. *)

val ring_staged : ring -> int
val ring_capacity : ring -> int
val ring_slot_bytes : ring -> int

val ring_buf : ring -> bytes
(** The staged-request image (header + slots).  Valid until the next
    {!ring_stage}, which may replace it with a larger copy. *)

val ring_reply_buf : ring -> bytes
(** The reply image, valid after {!ring_dispatch}: what a caller's
    replies borrow instead of copying their frames out.  Only the ring's
    next {!ring_dispatch} rewrites it; a {!ring_stage} that grows the
    images replaces it with a larger copy and leaves the old buffer's
    bytes as they were.  So a view into it stays good until the ring
    dispatches again, and fetch it afresh after every dispatch. *)

val ring_reset : ring -> unit
(** Forget the staged slots and rewind the served-slot cursor; the
    images are reused as-is. *)

val free_tcs_count : t -> int
(** TCSs currently available for entry (neither busy nor parked on an
    in-flight OCALL awaiting ORET). *)

val destroy : t -> unit
(** EREMOVE via the kernel module, which also releases the
    marshalling-buffer pins it took at creation. *)

val enclave : t -> Enclave.t
val mrenclave : t -> bytes
val mode : t -> Sgx_types.operation_mode
val stats : t -> Enclave.stats
val config : t -> config

val heap_bytes : t -> int
(** The heap's extent: bytes from [Tenv.heap_base] to the end of
    ELRANGE, the range a [Backend.env]'s heap offsets address. *)

val monitor : t -> Monitor.t

val gen_quote : t -> report_data:bytes -> Monitor.quote
(** Sec. 3.3 remote attestation: quote for this enclave
    ({!Hyperenclave_monitor.Monitor.gen_quote}).  The challenger's
    freshness goes in [report_data]; the TPM quote inside is the one
    the monitor took at launch, so no TPM command runs here. *)

val aep : int
(** The asynchronous exit pointer / ECALL return site the monitor's EEXIT
    validation is checked against. *)
