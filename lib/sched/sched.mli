(** Deterministic SMP enclave scheduler.

    Runs N enclaves (each behind its own {!Hyperenclave_sdk.Urts} handle)
    across M simulated cores.  Every core owns a {!Hyperenclave_hw.Cycles}
    clock and a run queue; execution itself happens on the shared platform
    clock (monitor, MMU and caches are per-platform), and each slice's
    elapsed delta is charged to the core that ran it — so per-core totals
    decompose the platform's work deterministically.

    A job is one of two kinds of work.  {!submit} queues a list of
    requests that run one {!Hyperenclave_sdk.Urts.ecall} (one world
    switch) per step; {!submit_ring} queues one staged slot ring that
    runs as a single switchless {!Hyperenclave_sdk.Urts.ring_dispatch}
    — the only batched call path, and the one the serving plane uses.

    Scheduling is discrete-event: the core with the earliest local clock
    runs next (ties to the lowest id), which makes runs bit-reproducible
    for a fixed submission order and config.  A slice executes requests
    until the quantum is consumed; the job's AEX timer is armed for the
    duration, so one long request is sheared by genuine AEX + ERESUME
    round trips through the monitor (SSA spill/restore) at each quantum
    boundary.  Unfinished jobs requeue at the back; a drained core steals
    from the richest queue (work stealing) when enabled, paying
    {!steal_cycles} on its own clock per stolen job. *)

open Hyperenclave_hw
open Hyperenclave_sdk

type config = {
  cores : int;
  quantum : int;  (** slice budget in cycles; also the AEX timer period *)
  work_stealing : bool;
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
    switch worth of cold cache/TLB refill. *)

type t

type core_stats = {
  core_id : int;
  cycles : int;  (** final core-local clock (busy + penalties + idle) *)
  busy : int;  (** cycles spent executing slices *)
  steals : int;
  preempts : int;  (** slice-boundary requeues *)
  completed : int;  (** requests completed on this core *)
}

type stats = {
  total_requests : int;
  failed_requests : int;
  makespan : int;  (** max final core clock — the run's wall time *)
  per_core : core_stats array;
  steals : int;
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

val submit :
  t ->
  ?core:int ->
  ?label:string ->
  ?on_result:(index:int -> (bytes, string) result -> unit) ->
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
    scheduler.

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
  ?on_result:(index:int -> (bytes, string) result -> unit) ->
  ?on_slice:(cycles:int -> unit) ->
  urts:Urts.t ->
  Urts.ring ->
  unit
(** Queue one staged slot ring ({!Urts.create_ring}/{!Urts.ring_stage})
    as a job: the ring dispatches as a single switchless unit on its
    core's next slice ({!Urts.ring_dispatch}), all-or-nothing under
    [drop_on_error].  The scheduler does not read reply bytes out of the
    ring — [on_result] reports [Ok Bytes.empty] per served slot (a
    shared placeholder, no per-request allocation) and the submitter
    reads replies in place via {!Urts.ring_read_replies} /
    {!Urts.ring_reply_slot} after {!run}.  The submitter publishes the
    staged image ({!Urts.ring_publish}) before [run]. *)

val run : t -> stats
(** Drain every queue to completion and return the run's statistics.
    Telemetry counters recorded along the way: [sched.steal],
    [sched.preempt], [sched.aex_preempt], [sched.request_failed],
    [sched.slice_cycles] (histogram), plus the SDK's [sdk.ecall] per
    call and [sdk.ring_dispatch] / [sdk.ring_slots] /
    [ring.shard_occupancy] per ring. *)

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
