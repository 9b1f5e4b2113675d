(** Deterministic SMP enclave scheduler.

    Runs N enclaves (each behind its own {!Hyperenclave_sdk.Urts} handle)
    across M simulated cores.  Every core owns a {!Hyperenclave_hw.Cycles}
    clock and a job list; execution itself happens on the shared platform
    clock (monitor, MMU and caches are per-platform), and the cycles each
    piece of work took are charged to the core it is placed on — so
    per-core totals decompose the platform's work deterministically.

    Work comes in two kinds, both one job: {!submit_ring} queues one
    staged slot ring — the only batched call path, and the one the
    serving plane uses — and {!submit} queues a list of individual
    ECALLs, one {!Hyperenclave_sdk.Urts.ecall} (one world switch) each,
    for handlers that must OCALL (ring handlers cannot).

    {b Run-relative time.}  {!run} records every core's clock on entry,
    and every pick compares the cycles each core has advanced since
    then, never absolute clocks: a core whose clock lags from earlier
    runs gets no head start in this one.  The core that has advanced
    least acts next (ties to the lowest id), which makes runs
    bit-reproducible for a fixed submission order and config.  No clock
    is ever moved to a common value: each core's advance is its own
    work.

    {b Run every job once, then place its units.}  Each job runs once on
    the shared clock in a fixed host order (owner core, then queue
    order).  A ring runs as a single switchless
    {!Hyperenclave_sdk.Urts.ring_dispatch} — its publish, one post
    fence, one worker context, its channel callbacks, its read-back and
    their fault retries — which records
    each slot's cycles ({!Hyperenclave_sdk.Urts.ring_slot_cycles}); a
    call job runs its ECALLs in order, and the scheduler records each
    call's cycles and ending.  Slots and calls are the units the
    scheduler then places on cores, from the run's common start.  The
    core that has advanced least takes the next step: it serves its own
    jobs' units from the head, in queue order, paying a job's unplaced
    cycles (a ring's publish and read-back, post fence, segment walks,
    worker context) when it starts it; when it has none left it {e joins} the job with the most
    unclaimed units (first in host order on a tie) and takes units from
    its tail, staying on that job until its units run out.  Whether and
    where to join reads only unclaimed-unit counts and queue order; the
    recorded cycles only advance time.  Joining a ring costs
    {!Hyperenclave_sdk.Urts.ring_join_cycles} (a post fence, a worker
    context entry and exit, the cursor's cache line), and while a ring
    has a joiner every claim on it, the owner's included, pays
    {!Hyperenclave_sdk.Urts.ring_claim_cycles}; joining a call job costs
    {!steal_cycles} once, with no per-claim charge.  Join and claim
    charges land on the claiming core's clock outside slices; slice
    ({e busy}) time sums to the platform cycles the jobs took, however
    they are placed.  A job nobody joins costs its owner exactly its
    run.  A ring that fails under [drop_on_error] is charged whole to
    its owner and never joined; [work_stealing = false] turns joins
    off. *)

open Hyperenclave_hw
open Hyperenclave_sdk

type config = {
  cores : int;
  work_stealing : bool;
      (** an idle core joins other cores' jobs.  Kept as a field because
          the repository benchmark's config update ([hebench/wl.ml])
          sets every other field. *)
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
(** 2 cores, joins on, [batch = 1], strict errors. *)

val steal_cycles : int
(** 6,886: cycles a core pays to join a call job — one OS context switch
    worth of cold cache/TLB refill — on its clock outside slices, once
    per job it joins.  Ring joins pay the SDK's ring prices instead. *)

type t

type core_stats = {
  core_id : int;
  cycles : int;  (** final core-local clock (busy + join and claim charges) *)
  busy : int;  (** cycles spent executing placed units *)
  joins : int;  (** jobs this core joined *)
  completed : int;  (** requests (ring slots and calls) ended on this core *)
}

type stats = {
  total_requests : int;
  failed_requests : int;
  makespan : int;  (** max final core clock — the run's wall time *)
  per_core : core_stats array;
  steals : int;
  joins : int;
  preempts : int;
  aex_preempts : int;
      (** [steals], [preempts] and [aex_preempts] always read 0: no job is
          stolen whole or preempted.  They stay because the repository
          benchmark ([hebench/bench.ml]) reads them. *)
}

val create :
  shared_clock:Cycles.t -> telemetry:Hyperenclave_obs.Telemetry.t -> config -> t

type on_result = index:int -> core:int -> (bytes, string) result -> unit
(** A request's ending, keyed by its submission index, with the core
    that served it. *)

val submit :
  t -> ?core:int -> ?on_result:on_result -> urts:Urts.t -> (int * bytes) list -> unit
(** Queue a call job: a list of [(ecall_id, payload)] requests against
    one enclave, each served by its own {!Hyperenclave_sdk.Urts.ecall}
    with [In_out] marshalling.  Jobs land on [core] when given, else
    round-robin by submission order.  [on_result] receives every
    request's ending keyed by its submission index, with the core it was
    placed on: [Ok reply] on completion, or [Error msg] when
    [drop_on_error] dropped it (an injected permanent fault or SDK
    refusal). *)

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
    [label] names the service the ring belongs to: its served slots also
    bump the [sched.svc.<label>] telemetry counter, whose name is built
    once per label.  [on_slice] receives the whole dispatch's cycles
    once — the hook the serving plane charges per-tenant quotas from;
    [on_result] reports each slot, keyed by slot index, with the core it
    was placed on.  The scheduler does not read reply bytes out of the
    ring — [on_result] reports [Ok Bytes.empty] per served slot (a shared
    placeholder, no per-request allocation) and the submitter reads
    replies in place via {!Urts.ring_reply_offset} and
    {!Urts.ring_reply_length} after {!run}. *)

val run : t -> unit
(** Run every queued job once in host order and place their units from
    the common start (see the header); {!stats} reads the result.  A
    core's clock advances by its slice time plus its join and claim
    charges; a core with nothing to do does not advance.  Telemetry
    recorded along the way: [sched.join], [sched.request_failed],
    [sched.slice_cycles] (histogram; one sample per job), plus the SDK's
    [sdk.ecall] per call and [sdk.ring_dispatch] / [sdk.ring_slots] /
    [ring.shard_occupancy] per ring.  An exception that escapes (a
    monitor violation, or any failure without [drop_on_error]) leaves
    every job run so far charged whole to its owner, places none of
    their units and dequeues the whole run. *)

val stats : t -> stats
(** Read-only snapshot of the scheduler's statistics: never
    advances a clock, runs a job, or drains a queue, so it is safe to
    call between [submit] and [run] (or never calling [run] at all). *)

val core_cycles : t -> int -> int
(** Core [i]'s clock, read without building a {!stats} snapshot. *)

val core_busy : t -> int -> int
(** Core [i]'s cumulative slice cycles, read without building a
    {!stats} snapshot. *)
