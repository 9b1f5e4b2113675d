(** Monitor-wide telemetry: the measurement substrate behind the paper's
    evaluation (Tables 1-2, Figs. 7-11).

    Everything RustMonitor and the SDK do on a hot path — hypercalls,
    world switches, EPC paging, exception flows — is counted here so that
    tests can assert on event streams, benches can print per-phase deltas,
    and the CLI can dump a platform-wide snapshot.  Three primitives:

    - {b counters}: monotonic named integers ([switch.eenter],
      [epc.evict], ...), created on first use;
    - {b histograms}: power-of-two bucketed cycle distributions
      ([cycles.eenter], ...), tracking count/sum/min/max;
    - {b trace ring}: a bounded ring buffer of recent events, each
      stamped with the simulated cycle it happened at.

    Recording never charges simulated cycles and never draws randomness,
    so instrumented runs stay cycle-for-cycle identical to bare ones. *)

type t

val create : ?ring_capacity:int -> unit -> t
(** Fresh telemetry state.  [ring_capacity] bounds the trace ring
    (default 256 events); older events are overwritten. *)

(** {1 Recording} *)

val incr : t -> string -> unit
(** Bump a counter by one, creating it at zero on first use. *)

val add : t -> string -> int -> unit
(** Bump a counter by [n >= 0]. *)

val raise_to : t -> string -> int -> unit
(** Monotonic maximum: set the counter to [v >= 0] if that is higher
    than its current value (high-water marks, e.g. lib/mc's deepest
    DFS level reached). *)

val counter : t -> string -> int
(** Current value; 0 for a counter never touched. *)

val counters_with_prefix : t -> string -> (string * int) list
(** All counters whose name starts with the given prefix, sorted by
    name.  The fault plane's per-site counters ([fault.injected.<site>])
    are the motivating consumer. *)

val sum_prefix : t -> string -> int
(** Sum of {!counters_with_prefix}. *)

val observe : t -> string -> int -> unit
(** Record one sample (in cycles) into a histogram. *)

val trace : t -> at:int -> ?detail:string -> string -> unit
(** Append an event to the ring; [at] is the simulated cycle stamp. *)

(** {1 Handles}

    {!incr}, {!add} and {!observe} hash the name on every call.  A hot
    site takes a handle once instead: the handle looks its name up on
    its first bump, and again on its first bump after a {!reset}, and
    otherwise writes straight into the counter or histogram.  A handle
    shares its counter with {!incr}/{!add} on the same name, creates
    nothing until it is bumped, and allocates nothing per bump once
    resolved. *)

type counter_handle
type histogram_handle

val counter_handle : t -> string -> counter_handle
val histogram_handle : t -> string -> histogram_handle

val bump : counter_handle -> int -> unit
(** {!add} through a handle: bump the counter by [n >= 0]. *)

val sample : histogram_handle -> int -> unit
(** {!observe} through a handle. *)

(** {1 Snapshots} *)

type hist_summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;
      (** [(bucket_lo, samples)] for non-empty log2 buckets: a sample [v]
          lands in the bucket whose [bucket_lo] is the largest power of
          two [<= v] (0 for [v = 0]). *)
}

type event = { seq : int; at : int; name : string; detail : string }

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * hist_summary) list;  (** sorted by name *)
  events : event list;  (** oldest first, at most [ring_capacity] *)
}

val snapshot : t -> snapshot
(** Immutable copy of the current state. *)

val mean : hist_summary -> float

val delta_counters : before:snapshot -> after:snapshot -> (string * int) list
(** Counter increase between two snapshots of the same [t], dropping
    zero deltas; sorted by name.  The substrate for per-phase bench
    reporting. *)

val to_json : snapshot -> string
(** Plain JSON (no external dependency): [{"counters": {...},
    "histograms": {...}, "events": [...]}]. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable rendering: counters, then histogram summaries, then
    the most recent trace events. *)

val reset : t -> unit
(** Zero every counter/histogram and drop the ring.  Test fixtures only. *)
