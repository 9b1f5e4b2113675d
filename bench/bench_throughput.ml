(* The switchless slot ring's saving over K individual ECALLs as K
   grows.  Its headline number is a row of the perf gate
   (Perf_gate.table, BENCH.json): at K = 8 the ring must serve a request
   in at most half the cycles of eight individual ECALLs.  It is a
   simulated-cycle quantity, so the gate is deterministic.  The serving
   plane's scaling over cores is bench_serve's. *)

open Hyperenclave

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

let ring_ratio_k8 () =
  let ringed, single = ring_vs_ecalls ~k:8 () in
  float_of_int single /. float_of_int ringed

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
    "The switchless slot ring vs K individual ECALLs, echo ECALL (pure \
     call-path cost).";
  print_ring ();
  Printf.printf
    "  K=8: the ring takes %.2fx fewer cycles per request (gate: >= 2x).\n"
    (ring_ratio_k8 ())

let headline ratio = [ ("ring_amortized_ratio_k8", ratio) ]
