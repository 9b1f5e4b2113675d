(* Figure 8b: in-memory SQLite under YCSB workload A, throughput vs
   record count (Sec. 7.4).

   Paper shape: SGX runs at ~75% of its baseline while the table fits in
   the EPC, then falls to ~50% once the working set crosses ~90 MB (EPC
   paging); the paper reports HyperEnclave GU and HU as "almost the same
   as baseline".  Measured here: HU 0.96-0.98 and GU 0.91-0.93 of
   baseline, flat across the EPC size; GU sits lower from its nested
   paging walks.  Records are 1 KB, so the crossover sits at ~93k
   records. *)

open Hyperenclave
module Kvdb = Hyperenclave_workloads.Kvdb

let record_counts = [ 10_000; 25_000; 50_000; 75_000; 100_000; 130_000 ]
let ops = 8_000

let run_backend make_backend ~records =
  let backend = make_backend () in
  ignore (Kvdb.load backend ~records);
  let cycles = Kvdb.run_ops backend ~records ~ops in
  backend.Backend.destroy ();
  cycles

let run () =
  Util.banner "Figure 8b"
    "SQLite (in-memory, YCSB A, 1 KB records) throughput relative to the \
     unprotected baseline; paper: SGX ~0.75 under the 90 MB EPC then ~0.50 \
     beyond it, HyperEnclave GU/HU \"almost the same as baseline\"; \
     measured: HU 0.96-0.98, GU 0.91-0.93 (nested-paging walks).";
  let rows =
    List.map
      (fun records ->
        let native () =
          Backend.native ~clock:(Cycles.create ()) ~cost:Cost_model.default
            ~rng:(Rng.create ~seed:21L) ~handlers:(Kvdb.handlers ()) ~ocalls:[]
        in
        let hyper mode () =
          let platform = Platform.create ~seed:505L () in
          Backend.create platform
            {
              (Backend.config (Backend.Hyperenclave mode)) with
              Backend.handlers = Kvdb.handlers ();
            }
        in
        let sgx () =
          Backend.sgx ~clock:(Cycles.create ()) ~cost:Cost_model.default
            ~rng:(Rng.create ~seed:22L) ~handlers:(Kvdb.handlers ()) ~ocalls:[]
            ()
        in
        let base = run_backend native ~records in
        let gu = run_backend (hyper Sgx_types.GU) ~records in
        let hu = run_backend (hyper Sgx_types.HU) ~records in
        let sgx_c = run_backend sgx ~records in
        let rel x = Printf.sprintf "%.2f" (float_of_int base /. float_of_int x) in
        [
          string_of_int records;
          Util.human_bytes (records * Kvdb.record_bytes);
          Printf.sprintf "%.1f" (Kvdb.throughput_kops ~cycles:base ~ops);
          rel gu;
          rel hu;
          rel sgx_c;
        ])
      record_counts
  in
  Util.print_table
    ~columns:
      [ "records"; "working set"; "baseline kops/s"; "GU"; "HU"; "Intel SGX" ]
    rows
