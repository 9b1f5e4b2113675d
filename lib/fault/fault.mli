(** Deterministic fault-injection plane.

    The monitor's security argument (Sec. 3.2, R-1..R-3) has to hold not
    just on the happy path but when operations fail midway: EPC
    exhaustion, TPM command errors, AEX storms, interrupted world
    switches, truncated marshalling copies, flaky ioctls.  This module is
    the single switchboard for provoking those failures on purpose.

    Every trust-boundary crossing in the code base declares a {e named
    injection site} (see {!sites}) and calls {!point} (or {!check}, when
    the failure has bespoke semantics such as simulated EPC pressure)
    {b before mutating any state}.  That pre-mutation discipline is what
    makes the trichotomy oracle sound: an injected fault either unwinds
    into a clean typed error, is absorbed by a retry path, or trips a
    {e deliberate} monitor refusal — it can never leave half-written
    monitor state behind, so the invariant checker must stay green after
    every injection.

    A {e fault plan} is an explicit schedule of [(site, nth-hit, kind)]
    triples.  Plans are either written out by hand or derived from a
    64-bit seed ({!plan_of_seed}); equal seeds give equal schedules, so a
    failing chaos run reproduces from nothing but its printed seed.

    When no plan is installed (the default) every site is a no-op that
    charges no simulated cycles and draws no randomness — instrumented
    code stays cycle-for-cycle identical to the uninstrumented build. *)

type kind =
  | Transient  (** the operation would succeed if retried (EPC pressure,
                   TPM busy, interrupted world switch) *)
  | Permanent  (** the resource is gone; retries keep failing *)

exception Injected of { site : string; kind : kind }
(** The typed fault raised at a firing site.  [Transient] faults are
    eligible for the SDK/kernel-module bounded-retry paths; [Permanent]
    faults propagate to the caller as a clean typed error. *)

val kind_name : kind -> string

val message : site:string -> kind -> string
(** ["injected <kind> fault at <site>"]: the one text a typed error
    gives for a fault that fired. *)

type spec = { site : string; nth : int; kind : kind }
(** Fire [kind] on the [nth] (1-based) hit of [site] after install. *)

type plan = spec list

(** {1 Site registry} *)

val sites : string list
(** Every named injection site threaded through the stack:
    ["hypercall.dispatch"] (the kernel module's hypercall gate),
    ["epc.alloc"] / ["epc.swap_in"] (EPC frame allocation / ELDU reload),
    ["tpm.quote"] / ["tpm.seal"] / ["tpm.unseal"] (TPM commands),
    ["switch.aex"] / ["switch.eresume"] (AEX delivery / ERESUME),
    ["sdk.ms_copy_in"] / ["sdk.ms_copy_out"] (marshalling-buffer copies),
    ["sdk.aex_storm"] (interrupt burst right after EENTER),
    ["os.ioctl"] (kernel-module ioctl forwarding),
    ["serve.session"] (serving-plane session work: handshake acceptance
    and per-session dispatch staging),
    ["cluster.migrate"] (fleet migration protocol steps: the offer,
    seal and install phases of a live enclave migration).  A site outside
    this list is refused by {!install}, and by {!point} and {!check}
    while a plan is armed. *)

(** {1 Plans} *)

val plan_of_seed : ?sites:string list -> ?faults:int -> ?max_nth:int -> int64 -> plan
(** Derive a schedule deterministically from [seed]: [faults] specs
    (default 3), each picking a site uniformly from [sites] (default
    {!sites}), an [nth] hit in [1, max_nth] (default 4) and a kind
    (transient twice as likely as permanent).  Equal arguments give equal
    plans. *)

val plan_to_string : plan -> string
(** One-line rendering ["site@nth:kind + ..."] for failure reports. *)

(** {1 Installation} *)

val install : ?telemetry:Hyperenclave_obs.Telemetry.t -> plan -> unit
(** Arm the plan, resetting all hit counters.  At each injection the
    optional [telemetry] sink receives [fault.injected] and
    [fault.injected.<site>] counter bumps (and [fault.retried] /
    [fault.survived] from the retry helpers).
    @raise Invalid_argument, arming nothing, if a spec's site is not in
    {!sites}. *)

val clear : unit -> unit
(** Disarm: every site becomes a no-op again. *)

val active : unit -> bool

val on_inject : (site:string -> kind -> unit) -> unit
(** Observer invoked at every firing site, before the fault takes
    effect.  Because sites fire pre-mutation, the observer sees the
    system in a consistent state — the chaos harness uses it to run the
    monitor invariant checker at the exact moment of each fault.
    Cleared by {!clear}. *)

val injected_count : unit -> int
(** Faults fired since the last {!install}. *)

val hits : string -> int
(** Times [site] was crossed since the last {!install}. *)

(** {1 Injection points (called by instrumented code)} *)

val check : string -> kind option
(** Record a hit at [site]; [Some kind] when the plan fires here.  For
    sites whose failure has bespoke semantics (e.g. simulated EPC
    pressure that the monitor absorbs by evicting).
    @raise Invalid_argument if a plan is armed and [site] is not in
    {!sites}; unarmed, every site is a no-op. *)

val point : string -> unit
(** [check] and raise {!Injected} when the plan fires. *)

(** {1 Recovery helpers} *)

val survived : string -> unit
(** Record that an injected fault at [site] was absorbed without the
    operation failing (counter [fault.survived]). *)

val retried : string -> unit
(** Record one retry attempt caused by a transient fault at [site]
    (counter [fault.retried]). *)

val with_retries :
  ?max_attempts:int -> backoff:(int -> unit) -> (unit -> 'a) -> 'a
(** [with_retries ~backoff f] runs [f], retrying on [Injected
    {kind = Transient}] up to [max_attempts] (default 3) total attempts.
    [backoff attempt] is called before each retry (attempts numbered from
    1) so the caller can charge simulated backoff cycles.  Counts
    [fault.retried] per retry and [fault.survived] when a retry
    succeeds.  Permanent faults and exhausted retries re-raise. *)
