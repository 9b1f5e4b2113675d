(* Figure 8a: NBench relative scores (Sec. 7.4).

   Baseline = the same kernels with no protection ("SDK simulation
   mode").  Paper: HyperEnclave overhead ~1%, SGX ~3% — CPU-bound code
   only pays for timer-tick AEXes and slightly pricier memory. *)

open Hyperenclave
module Nbench = Hyperenclave_workloads.Nbench

let iterations = 25

let native_run () =
  let clock = Cycles.create () in
  let backend =
    Backend.native ~clock ~cost:Cost_model.default ~rng:(Rng.create ~seed:11L)
      ~handlers:(Nbench.handlers ()) ~ocalls:[]
  in
  Nbench.run_suite backend ~iterations

let hyperenclave_run mode =
  let platform = Platform.create ~seed:404L () in
  let backend =
    Backend.create platform
      {
        (Backend.config (Backend.Hyperenclave mode)) with
        Backend.handlers = Nbench.handlers ();
      }
  in
  let result = Nbench.run_suite backend ~iterations in
  backend.Backend.destroy ();
  result

let sgx_run () =
  let clock = Cycles.create () in
  let backend =
    Backend.sgx ~clock ~cost:Cost_model.default ~rng:(Rng.create ~seed:12L)
      ~handlers:(Nbench.handlers ()) ~ocalls:[] ()
  in
  Nbench.run_suite backend ~iterations

let run () =
  Util.banner "Figure 8a"
    "NBench scores relative to the unprotected baseline (1.00 = no \
     slowdown); paper: HyperEnclave ~0.99, SGX ~0.97.";
  let native = native_run () in
  let hyper = hyperenclave_run Sgx_types.GU in
  let sgx = sgx_run () in
  let rows =
    List.map2
      (fun (name, base_cycles) ((_, h_cycles), (_, s_cycles)) ->
        [
          name;
          Printf.sprintf "%.3f" (float_of_int base_cycles /. float_of_int h_cycles);
          Printf.sprintf "%.3f" (float_of_int base_cycles /. float_of_int s_cycles);
        ])
      native
      (List.combine hyper sgx)
  in
  let geomean select =
    let logs =
      List.map2
        (fun (_, b) pair ->
          let x = select pair in
          log (float_of_int b /. float_of_int x))
        native
        (List.combine hyper sgx)
    in
    exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
  in
  Util.print_table
    ~columns:[ "kernel"; "HyperEnclave"; "Intel SGX" ]
    (rows
    @ [
        [
          "geometric mean";
          Printf.sprintf "%.3f" (geomean (fun ((_, h), _) -> h));
          Printf.sprintf "%.3f" (geomean (fun (_, (_, s)) -> s));
        ];
      ])
