(** Deterministic SMP enclave scheduler.

    Runs N enclaves (each behind its own {!Hyperenclave_sdk.Urts} handle)
    across M simulated cores.  Every core owns a {!Hyperenclave_hw.Cycles}
    clock and a run queue; execution itself happens on the shared platform
    clock (monitor, MMU and caches are per-platform), and each slice's
    elapsed delta is charged to the core that ran it — so per-core totals
    decompose the platform's work deterministically.

    Work comes in two kinds.  {!submit} queues a job: a list of
    requests that run one {!Hyperenclave_sdk.Urts.ecall} (one world
    switch) per step; {!submit_ring} queues one staged slot ring — the
    only batched call path, and the one the serving plane uses.

    {b Run-relative time.}  {!run} records every core's clock on entry,
    and every pick compares the cycles each core has advanced since
    then, never absolute clocks: a core whose clock lags from earlier
    runs gets no head start in this one.  The core that has advanced
    least acts next (ties to the lowest id), which makes runs
    bit-reproducible for a fixed submission order and config.  No clock
    is ever moved to a common value: each core's advance is its own
    work.

    {b Rings: run once, then place the slots.}  Each ring runs once on
    the shared clock as a single switchless
    {!Hyperenclave_sdk.Urts.ring_dispatch} — one post fence, one worker
    context, its channel callbacks and its fault retry — in a fixed host
    order (owner core, then queue order).  The dispatch records each
    slot's cycles ({!Hyperenclave_sdk.Urts.ring_slot_cycles}); the
    scheduler then places the slots, not whole rings, on cores, from the
    run's common start.  The core that has advanced least takes the next
    step: it serves its own rings' slots from the head, in queue order,
    paying a ring's unslotted cycles when it starts it; when it has none
    left it {e joins} the ring with the most unclaimed slots (first in
    host order on a tie) and takes slots from its tail, staying on that
    ring until its slots run out.  Whether and where to join reads only
    unclaimed-slot counts and queue order; the recorded cycles only
    advance time.  A join costs
    {!Hyperenclave_sdk.Urts.ring_join_cycles} (a post fence, a worker
    context entry and exit, the cursor's cache line), and while a ring
    has a joiner every claim on it, the owner's included, pays
    {!Hyperenclave_sdk.Urts.ring_claim_cycles}.  Join and claim charges
    land on the claiming core's clock outside slices, like a steal
    penalty; slice ({e busy}) time sums to the platform cycles the rings
    took, however they are placed.  A ring nobody joins costs its owner
    exactly its dispatch.  A ring that fails under [drop_on_error] is
    charged whole to its owner and never joined; [work_stealing = false]
    turns joins off.

    {b Jobs: slices and steals.}  A slice executes a job's requests
    until the quantum is consumed; the job's AEX timer is armed for the
    duration, so one long request is sheared by genuine AEX + ERESUME
    round trips through the monitor (SSA spill/restore) at each quantum
    boundary.  Unfinished jobs requeue at the back; a drained core steals
    the back job of the richest queue (work stealing) when enabled,
    paying {!steal_cycles} on its own clock per stolen job.  Jobs run
    after the run's rings are placed, from where the placement left
    each core. *)

open Hyperenclave_hw
open Hyperenclave_sdk

type config = {
  cores : int;
  quantum : int;  (** slice budget in cycles; also the AEX timer period *)
  work_stealing : bool;
      (** a drained core steals whole jobs and joins other cores' rings *)
  batch : int;
      (** Not read by the scheduler.  The serving plane
          ({!Hyperenclave_serve.Serve.flush}) reads it as its reply-seal
          group — one AEAD setup charge per [batch] replies its ring
          workers seal;
          [Serve.create_node] requires it in [[1, 16]].  It stays here
          because existing serve configurations set it through
          [Sched.config]. *)
  drop_on_error : bool;
      (** drop a request that ends in a typed error (injected permanent
          fault, SDK refusal) instead of aborting the run — lets chaos
          schedules drain; monitor violations always propagate *)
}

val default_config : config
(** 2 cores, 250k-cycle quantum, stealing on, [batch = 1], strict
    errors. *)

val steal_cycles : int
(** 6,886: cycles charged to the thief per stolen job — one OS context
    switch worth of cold cache/TLB refill — on its clock outside slices.
    Only whole jobs are stolen; ring slots are shared by joins, which pay
    the SDK's ring prices instead. *)

type t

type core_stats = {
  core_id : int;
  cycles : int;  (** final core-local clock (busy + penalties + idle) *)
  busy : int;  (** cycles spent executing slices *)
  steals : int;  (** whole jobs this core stole *)
  joins : int;  (** rings this core joined *)
  preempts : int;  (** slice-boundary requeues *)
  completed : int;  (** requests (ring slots included) completed on this core *)
}

type stats = {
  total_requests : int;
  failed_requests : int;
  makespan : int;  (** max final core clock — the run's wall time *)
  per_core : core_stats array;
  steals : int;
  joins : int;
  preempts : int;
  aex_preempts : int;  (** mid-request AEX timer firings *)
}

val create :
  ?on_preempt:(core_id:int -> unit) ->
  shared_clock:Cycles.t ->
  telemetry:Hyperenclave_obs.Telemetry.t ->
  config ->
  t
(** [on_preempt] fires at every preemption — both slice-boundary requeues
    and mid-request AEX timer firings (after the ERESUME, with monitor
    state settled) — the hook the chaos suite uses to run
    [Invariants.check] at each one. *)

type on_result = index:int -> core:int -> (bytes, string) result -> unit
(** A request's ending, keyed by its submission index, with the core
    that served it. *)

val submit :
  t ->
  ?core:int ->
  ?label:string ->
  ?on_result:on_result ->
  ?on_slice:(cycles:int -> unit) ->
  urts:Urts.t ->
  (int * bytes) list ->
  unit
(** Queue a job: a list of [(ecall_id, payload)] requests against one
    enclave, each served by its own {!Hyperenclave_sdk.Urts.ecall} with
    [In_out] marshalling.  Jobs land on [core] when given, else
    round-robin by submission order.

    [label] names the service this job belongs to: every completed
    request additionally bumps the [sched.svc.<label>] telemetry counter,
    giving per-service dispatch totals when many tenants share the
    scheduler.  The counter name is built once per label.

    [on_result] receives every request's ending keyed by its submission
    index: [Ok reply] on completion, or [Error msg] when [drop_on_error]
    dropped it (an injected permanent fault or SDK refusal).
    [on_slice] receives every
    scheduling slice's consumed cycle delta — the accounting hook the
    serving plane charges per-tenant quotas from. *)

val submit_ring :
  t ->
  ?core:int ->
  ?label:string ->
  ?on_result:on_result ->
  ?on_slice:(cycles:int -> unit) ->
  Urts.ring ->
  unit
(** Queue one staged slot ring ({!Urts.create_ring}/{!Urts.ring_stage}),
    owned by [core] (else round-robin): {!run} dispatches it once as a
    single switchless unit ({!Urts.ring_dispatch}), all-or-nothing under
    [drop_on_error], then places its slots on cores (see the header).
    [on_slice] receives the whole dispatch's cycles once; [on_result]
    reports each slot, keyed by slot index, with the core it was placed
    on.  The scheduler does not read reply bytes out of the ring —
    [on_result] reports [Ok Bytes.empty] per served slot (a shared
    placeholder, no per-request allocation) and the submitter reads
    replies in place via {!Urts.ring_read_replies} /
    {!Urts.ring_reply_slot} after {!run}.  The submitter publishes the
    staged image ({!Urts.ring_publish}) before [run]. *)

val run : t -> stats
(** Drain every queue to completion and return the run's statistics.
    Time is run-relative (see the header): the run first dispatches
    every queued ring in host order, then places their slots from the
    common start, then runs the jobs.  A core's clock advances by its
    slice time plus its join, claim and steal charges; a core with
    nothing to do does not advance.  Telemetry counters recorded along
    the way: [sched.steal], [sched.join], [sched.preempt],
    [sched.aex_preempt], [sched.request_failed], [sched.slice_cycles]
    (histogram; one sample per slice and per ring), plus the SDK's
    [sdk.ecall] per call and [sdk.ring_dispatch] / [sdk.ring_slots] /
    [ring.shard_occupancy] per ring.  An exception that escapes (a
    monitor violation, or any failure without [drop_on_error]) leaves
    the run's rings charged whole to their owners and dequeued. *)

val stats : t -> stats
(** Read-only snapshot of the same statistics {!run} returns: never
    advances a clock, runs a slice, or drains a queue, so it is safe to
    call between [submit] and [run] (or never calling [run] at all). *)

val core_cycles : t -> int -> int
(** Core [i]'s clock, read without building a {!stats} snapshot. *)

val core_busy : t -> int -> int
(** Core [i]'s cumulative slice cycles, read without building a
    {!stats} snapshot. *)

val pp_stats : Format.formatter -> stats -> unit
