(** Deterministic pseudo-random number generator (splitmix64).

    Used for everything that needs randomness in the simulation — TPM RNG,
    key generation, workload distributions, cache-jitter — so that every
    run of the test suite and benchmark harness is reproducible.

    The stream is the splitmix64 reference stream (test_hw pins its first
    outputs).  Its state is kept unboxed, so {!int}, {!bool} and
    {!shuffle} allocate nothing and {!bytes} only its result. *)

type t

val create : seed:int64 -> t
(** [create ~seed] is a fresh generator.  Equal seeds give equal streams. *)

val set_seed : t -> int64 -> unit
(** Reset the stream; afterwards the generator replays the sequence of a
    fresh [create ~seed]. *)

val state : t -> int64
(** Current stream position; [set_seed t (state t)] is the identity.
    Lets lib/mc checkpoint and rewind the generator during DFS. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]:
    it is [create ~seed:(next_int64 t)]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bytes : t -> int -> bytes
(** [bytes t n] is [n] pseudo-random bytes, one draw each: byte [i] is
    what the [i]th [int t 256] would return. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
