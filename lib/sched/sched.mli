(** Deterministic SMP enclave scheduler.

    Runs N enclaves (each behind its own {!Hyperenclave_sdk.Urts} handle)
    across M simulated cores.  Every core owns a {!Hyperenclave_hw.Cycles}
    clock and a job list; execution itself happens on the shared platform
    clock (monitor, MMU and caches are per-platform), and the cycles each
    piece of work took are charged to the core it is placed on — so
    per-core totals decompose the platform's work deterministically.

    A job is one staged slot ring ({!ring_job}, {!submit_job}): the
    SDK's only batched call path, and the only work the serving plane
    submits.

    {b Run-relative time.}  {!run} records every core's clock on entry,
    and every pick compares the cycles each core has advanced since
    then, never absolute clocks: a core whose clock lags from earlier
    runs gets no head start in this one.  The core that has advanced
    least acts next (ties to the lowest id), which makes runs
    bit-reproducible for a fixed submission order and config.  No clock
    is ever moved to a common value: each core's advance is its own
    work.

    {b Run every ring once, then place its slots.}  Each ring runs once
    on the shared clock in a fixed host order (owner core, then queue
    order), as a single switchless
    {!Hyperenclave_sdk.Urts.ring_dispatch} — its publish, one post
    fence, one worker context, its channel callbacks, its read-back and
    their fault retries — which records each slot's cycles
    ({!Hyperenclave_sdk.Urts.ring_slot_cycles}).  The scheduler then
    places the slots on cores, from the run's common start.  The core
    that has advanced least takes the next step: it serves its own
    rings' slots from the head, in queue order, paying a ring's unplaced
    cycles (its publish and read-back, post fence, segment walks, worker
    context) when it starts it; when it has none left it {e joins} the
    ring with the most unclaimed slots (first in host order on a tie)
    and takes slots from its tail, staying on that ring until its slots
    run out.  Whether and where to join reads only unclaimed-slot counts
    and queue order; the recorded cycles only advance time.  Joining a
    ring costs {!Hyperenclave_sdk.Urts.ring_join_cycles} (a post fence,
    a worker context entry and exit, the cursor's cache line), and while
    a ring has a joiner every claim on it, the owner's included, pays
    {!Hyperenclave_sdk.Urts.ring_claim_cycles}.  Join and claim charges
    land on the claiming core's clock outside slices; slice ({e busy})
    time sums to the platform cycles the rings took, however they are
    placed.  A ring nobody joins costs its owner exactly its dispatch.
    A ring that fails under [drop_on_error] is charged whole to its
    owner and never joined; [work_stealing = false] turns joins off. *)

open Hyperenclave_hw
open Hyperenclave_sdk

type config = {
  cores : int;
  work_stealing : bool;
      (** an idle core joins other cores' rings.  Kept as a field because
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

type t

type core_stats = {
  core_id : int;
  cycles : int;  (** final core-local clock (busy + join and claim charges) *)
  busy : int;  (** cycles spent executing placed units *)
  joins : int;  (** jobs this core joined *)
  completed : int;  (** ring slots ended on this core *)
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
      (** [steals], [preempts] and [aex_preempts] always read 0: no ring
          is stolen whole or preempted.  They stay because the repository
          benchmark ([hebench/bench.ml]) reads them. *)
}

val create :
  shared_clock:Cycles.t -> telemetry:Hyperenclave_obs.Telemetry.t -> config -> t

type on_result = index:int -> core:int -> (unit, string) result -> unit
(** A ring slot's ending, keyed by its slot index, with the core it was
    placed on: [Ok ()] when it was served, [Error msg] when
    [drop_on_error] failed its ring (an injected permanent fault or an
    SDK refusal).  The scheduler reads no reply bytes: the submitter
    reads them in place via {!Urts.ring_reply_offset} and
    {!Urts.ring_reply_length} after {!run}. *)

type job
(** One slot ring's place in the scheduler, built once ({!ring_job}) and
    queued once per {!run} ({!submit_job}): a caller that dispatches the
    same ring every round keeps its job, and queueing it again allocates
    nothing. *)

val ring_job :
  t ->
  ?core:int ->
  ?label:string ->
  ?on_result:on_result ->
  ?on_slice:(cycles:int -> unit) ->
  Urts.ring ->
  job
(** The job of a slot ring ({!Urts.create_ring}), owned by [core] (else
    round-robin by build order).  [label] names the service the ring
    belongs to: its served slots also bump the [sched.svc.<label>]
    telemetry counter, whose name is built once per label.  [on_slice]
    receives the whole dispatch's cycles once per run — the hook the
    serving plane charges per-tenant quotas from; [on_result] reports
    each slot.  Reporting a served slot allocates nothing.
    @raise Invalid_argument if [core] is out of range. *)

val submit_job : t -> job -> unit
(** Queue the job's ring, as staged now ({!Urts.ring_stage}): {!run}
    dispatches it once as a single switchless unit
    ({!Urts.ring_dispatch}), all-or-nothing under [drop_on_error], then
    places its slots on cores (see the header).  The job leaves its
    queue in that run, placed or aborted, and the scheduler keeps no
    reference to it; it may then be submitted again.
    @raise Invalid_argument if the job is already queued. *)

val submit_ring :
  t ->
  ?core:int ->
  ?label:string ->
  ?on_result:on_result ->
  ?on_slice:(cycles:int -> unit) ->
  Urts.ring ->
  unit
(** [submit_job] of a fresh {!ring_job}: one ring, one run.
    @raise Invalid_argument if [core] is out of range. *)

val run : t -> unit
(** Run every queued ring once in host order and place their slots from
    the common start (see the header); {!stats} reads the result.  A
    core's clock advances by its slice time plus its join and claim
    charges; a core with nothing to do does not advance.  Telemetry
    recorded along the way: [sched.join], [sched.request_failed],
    [sched.slice_cycles] (histogram; one sample per ring), plus the SDK's
    [sdk.ring_dispatch] / [sdk.ring_slots] / [ring.shard_occupancy] per
    ring.  An exception that escapes (a monitor violation, or any failure
    without [drop_on_error]) leaves every ring run so far charged whole
    to its owner, places none of their slots and dequeues the whole
    run. *)

val stats : t -> stats
(** Read-only snapshot of the scheduler's statistics: never
    advances a clock, runs a ring, or drains a queue, so it is safe to
    call between {!submit_job} and {!run} (or never calling [run] at
    all). *)

val core_cycles : t -> int -> int
(** Core [i]'s clock, read without building a {!stats} snapshot. *)

val core_busy : t -> int -> int
(** Core [i]'s cumulative slice cycles, read without building a
    {!stats} snapshot. *)
