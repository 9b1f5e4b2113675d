(** LMBench micro-benchmarks, native vs. inside the normal VM (Table 3).

    Six operations from McVoy & Staelin's suite: null syscall, fork,
    context switch (16 processes / 64 KB working set in the original; two
    processes with the same working set here), mmap, page fault, and an
    AF_UNIX round trip.  Each runs twice through the real kernel paths —
    once with native 1-level translation and once under RustMonitor's
    nested table — so the virtualization overhead is whatever the MMU
    model produces (extra nested walk loads on TLB misses), not a
    hard-coded percentage. *)

open Hyperenclave_tee

type result = {
  name : string;
  native_us : float;
  vm_us : float;
  overhead_pct : float;
}

val run : Platform.t -> ?iterations:int -> unit -> result list
