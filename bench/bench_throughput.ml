(* PR 4 tentpole bench: end-to-end request throughput of the SMP enclave
   scheduler (lib/sched) serving the RESP KV workload across 1/2/4/8
   simulated cores, plus the switchless slot ring's saving over K
   individual ECALLs as K grows.

   Its headline numbers are rows of the perf gate (Perf_gate.table,
   BENCH.json): requests/sec must scale at least 1.6x from 1 to 2 cores,
   and at K = 8 the ring must serve a request in at most half the cycles
   of eight individual ECALLs.  Both are simulated-cycle quantities, so
   the gate is deterministic. *)

open Hyperenclave
module Resp_kv = Hyperenclave_workloads.Resp_kv
module Ycsb = Hyperenclave_workloads.Ycsb

(* The paper's evaluation machine: 2.2 GHz EPYC (Sec. 7.1); same
   constant resp_kv uses for its latency curves. *)
let clock_hz = 2.2e9
let records = 256
let enclaves = 8
let reqs_per_enclave = 24
let value_bytes = 128

let key_name key = Printf.sprintf "user%08d" key

(* A YCSB-A request stream, pre-encoded as RESP commands. *)
let request_stream ~seed n =
  let gen = Ycsb.create ~rng:(Rng.create ~seed) ~records () in
  List.init n (fun _ ->
      let parts =
        match Ycsb.next_op_a gen with
        | Ycsb.Read key | Ycsb.Scan (key, _) -> [ "GET"; key_name key ]
        | Ycsb.Update key ->
            [
              "SET";
              key_name key;
              Bytes.to_string (Ycsb.record_value ~key ~size:value_bytes);
            ]
      in
      (Resp_kv.ecall_command, Resp_kv.encode_command parts))

type run = {
  cores : int;
  rps : float;
  makespan : int;
  total : int;
  joins : int;
}

(* N enclaves, [reqs_per_enclave] requests each, scheduled over [cores]
   cores.  Fresh platform per configuration so runs are independent and
   seed-reproducible. *)
let measure ~cores =
  let p = Platform.create ~seed:906L () in
  let backends =
    List.init enclaves (fun i ->
        Backend.create p
          {
            (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
            Backend.code_seed = Some (Printf.sprintf "throughput-%d" i);
            handlers = Resp_kv.handlers ();
            ocalls = Resp_kv.ocalls ();
          })
  in
  List.iter (fun b -> Resp_kv.load b ~records) backends;
  let sched =
    Sched.create ~shared_clock:p.Platform.clock
      ~telemetry:(Monitor.telemetry p.Platform.monitor)
      { Sched.default_config with Sched.cores }
  in
  List.iteri
    (fun i b ->
      Sched.submit sched
        ~urts:(Option.get b.Backend.urts)
        (request_stream ~seed:(Int64.of_int (7_000 + i)) reqs_per_enclave))
    backends;
  Sched.run sched;
  let stats = Sched.stats sched in
  List.iter (fun b -> b.Backend.destroy ()) backends;
  {
    cores;
    rps =
      float_of_int stats.Sched.total_requests
      *. clock_hz
      /. float_of_int (max 1 stats.Sched.makespan);
    makespan = stats.Sched.makespan;
    total = stats.Sched.total_requests;
    joins = stats.Sched.joins;
  }

(* K echo requests on a minimal [mode] enclave, served once through the
   slot ring (stage, then one round trip) and once as K
   individual ECALLs: [(ring_cycles, ecall_cycles)].  The compute inside
   each call is ~zero, so the cycles are almost entirely call-path cost.
   Shared by the K table below and ablation A6. *)
let ring_vs_ecalls ?(seed = 907L) ?(mode = Sgx_types.GU) ~k () =
  let p = Platform.create ~seed () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer ~config:(Urts.default_config mode)
      ~ecalls:[ (1, fun _ input -> input) ]
      ~ocalls:[]
  in
  let payloads = List.init k (fun i -> Bytes.of_string (string_of_int i)) in
  let ring = Urts.create_ring handle ~shard:0 ~shards:1 ~slots:k ~slot_bytes:64 in
  (* Warm call: both paths start from identical paging/TLB state. *)
  ignore (Urts.ecall handle ~id:1 ~data:Bytes.empty ~direction:Edge.In_out ());
  let (), ringed =
    Cycles.time p.Platform.clock (fun () ->
        List.iter
          (fun data ->
            let len = Bytes.length data in
            let off = Urts.ring_stage ring ~ecall_id:1 ~len in
            Bytes.blit data 0 (Urts.ring_buf ring) off len)
          payloads;
        Urts.ring_dispatch ring)
  in
  let (), single =
    Cycles.time p.Platform.clock (fun () ->
        List.iter
          (fun data ->
            ignore (Urts.ecall handle ~id:1 ~data ~direction:Edge.In_out ()))
          payloads)
  in
  Urts.destroy handle;
  (ringed, single)

type summary = {
  runs : run list;
  speedup_2core : float;
  ring_ratio_k8 : float;
}

let summarize () =
  let runs = List.map (fun cores -> measure ~cores) [ 1; 2; 4; 8 ] in
  let rps_of n = (List.find (fun r -> r.cores = n) runs).rps in
  let ringed, single = ring_vs_ecalls ~k:8 () in
  {
    runs;
    speedup_2core = rps_of 2 /. rps_of 1;
    ring_ratio_k8 = float_of_int single /. float_of_int ringed;
  }

let print_scaling (s : summary) =
  Util.print_table
    ~columns:[ "cores"; "requests"; "makespan (Mcyc)"; "req/s"; "joins" ]
    (List.map
       (fun r ->
         [
           string_of_int r.cores;
           string_of_int r.total;
           Printf.sprintf "%.2f" (float_of_int r.makespan /. 1e6);
           Printf.sprintf "%.0f" r.rps;
           string_of_int r.joins;
         ])
       s.runs);
  Printf.printf "\n  1 -> 2 core speedup: %.2fx (gate: >= 1.6x)\n"
    s.speedup_2core

let print_ring () =
  Util.print_table
    ~columns:[ "K"; "ring (cyc)"; "K ECALLs (cyc)"; "cyc/req ring"; "ratio" ]
    (List.map
       (fun k ->
         let ringed, single = ring_vs_ecalls ~k () in
         [
           string_of_int k;
           string_of_int ringed;
           string_of_int single;
           string_of_int (ringed / k);
           Printf.sprintf "%.2fx" (float_of_int single /. float_of_int ringed);
         ])
       [ 1; 2; 4; 8; 16 ]);
  print_newline ()

let run () =
  Util.set_experiment "throughput";
  Util.banner "Throughput"
    "SMP scheduler: RESP KV requests/sec vs simulated cores (8 enclaves, \
     YCSB-A), and the switchless slot ring vs K individual ECALLs.";
  let s = summarize () in
  print_scaling s;
  Printf.printf
    "\n  Switchless slot ring vs K ECALLs, echo ECALL (pure call-path cost):\n\n";
  print_ring ();
  Printf.printf
    "  K=8: the ring takes %.2fx fewer cycles per request (gate: >= 2x).\n"
    s.ring_ratio_k8

let headline (s : summary) =
  List.map (fun r -> (Printf.sprintf "rps_%dcore" r.cores, r.rps)) s.runs
  @ [
      ("speedup_2core", s.speedup_2core);
      ("ring_amortized_ratio_k8", s.ring_ratio_k8);
    ]
