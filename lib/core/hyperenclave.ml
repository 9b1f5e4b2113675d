(** HyperEnclave: an open and cross-platform trusted execution environment
    (Jia et al., USENIX ATC 2022) — OCaml reproduction.

    This module is the public entry point; it re-exports the subsystem
    libraries under short names and provides the one-call bring-up most
    programs want:

    {[
      let platform = Hyperenclave.Platform.create () in
      let backend =
        Hyperenclave.Backend.(
          create platform
            {
              (config (Hyperenclave Hyperenclave.Sgx_types.GU)) with
              handlers = [ (1, fun env input -> ...) ];
            })
      in
      let reply = backend.call ~id:1 ~data ~direction:Hyperenclave.Edge.In_out ()
    ]}

    Layering (bottom to top): {!Hw} (simulated hardware), {!Crypto},
    {!Tpm}, {!Monitor} (RustMonitor), {!Os} (untrusted primary OS),
    {!Sdk} (SGX-compatible runtime), {!Sgx} (Intel SGX baseline model),
    {!Attestation}, {!Tee} (unified workload backends), {!Workloads}. *)

let version = "1.0.0"

(* Subsystem namespaces. *)
module Hw = Hyperenclave_hw
module Crypto = Hyperenclave_crypto
module Tpm_lib = Hyperenclave_tpm
module Monitor_lib = Hyperenclave_monitor
module Os = Hyperenclave_os
module Sdk = Hyperenclave_sdk
module Sgx = Hyperenclave_sgx
module Libos_lib = Hyperenclave_libos
module Attestation = Hyperenclave_attestation
module Tee = Hyperenclave_tee
module Workloads = Hyperenclave_workloads

(* Frequently-used modules, re-exported flat. *)
module Telemetry = Hyperenclave_obs.Telemetry
module Fault = Hyperenclave_fault.Fault
module Invariants = Hyperenclave_monitor.Invariants
module Cycles = Hyperenclave_hw.Cycles
module Cost_model = Hyperenclave_hw.Cost_model
module Rng = Hyperenclave_hw.Rng
module Page_table = Hyperenclave_hw.Page_table
module Mmu = Hyperenclave_hw.Mmu
module Sha256 = Hyperenclave_crypto.Sha256
module Tpm = Hyperenclave_tpm.Tpm
module Pcr = Hyperenclave_tpm.Pcr
module Sgx_types = Hyperenclave_monitor.Sgx_types
module Monitor = Hyperenclave_monitor.Monitor
module Enclave = Hyperenclave_monitor.Enclave
module Epc = Hyperenclave_monitor.Epc
module Measure = Hyperenclave_monitor.Measure
module World_switch = Hyperenclave_monitor.World_switch
module Isa = Hyperenclave_monitor.Isa
module Vcpu = Hyperenclave_monitor.Vcpu
module Kernel = Hyperenclave_os.Kernel
module Process = Hyperenclave_os.Process
module Kmod = Hyperenclave_os.Kmod
module Boot = Hyperenclave_os.Boot
module Urts = Hyperenclave_sdk.Urts
module Tenv = Hyperenclave_sdk.Tenv
module Edge = Hyperenclave_sdk.Edge
module Edl = Hyperenclave_sdk.Edl
module Edl_app = Hyperenclave_sdk.Edl_app
module Verifier = Hyperenclave_attestation.Verifier
module Quote_wire = Hyperenclave_attestation.Wire
module Sigma = Hyperenclave_attestation.Sigma
module Libos = Hyperenclave_libos.Libos
module Vfs = Hyperenclave_libos.Vfs
module Platform = Hyperenclave_tee.Platform
module Backend = Hyperenclave_tee.Backend
module Mem_sim = Hyperenclave_tee.Mem_sim
module Sched = Hyperenclave_sched.Sched
module Serve = Hyperenclave_serve.Serve
module Services = Hyperenclave_serve.Services
module Cluster = Hyperenclave_cluster.Cluster
module Netsim = Hyperenclave_cluster.Netsim
module Kx = Hyperenclave_crypto.Kx
module Mc = Hyperenclave_mc.Explorer
module Mc_world = Hyperenclave_mc.World
module Mc_alphabet = Hyperenclave_mc.Alphabet
module Mc_trace = Hyperenclave_mc.Trace
