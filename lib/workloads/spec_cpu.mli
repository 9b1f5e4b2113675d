(** SPEC CPU 2017 INTspeed stand-ins for the virtualization-overhead study
    (Fig. 10).

    Nine integer kernels named after their SPEC counterparts, each a small
    but genuine algorithm in the same spirit (regex-ish scanning for
    perlbench, graph relaxation for mcf, alpha-beta search for deepsjeng,
    LZ-style compression for xz, ...).  Kernels run as primary-OS process
    code: computation plus page touches through the real MMU and timer
    ticks that cost a VM exit when virtualized — so the sub-1% overheads
    of Fig. 10 emerge from the model rather than being asserted. *)

open Hyperenclave_tee

val kernel_names : string list

type result = { name : string; native_cycles : int; vm_cycles : int; overhead_pct : float }

val run : Platform.t -> result list
(** Each kernel for 8 iterations, natively and nested. *)
