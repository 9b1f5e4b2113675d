(* Figure 8d: Redis latency-throughput curves under YCSB A (Sec. 7.4).

   50k x 1 KB records loaded, then GET/SET at increasing offered rates;
   latency follows an open-loop M/M/1 queue over the measured service
   time and the curve walls up at the saturation rate 1/S.  Paper: max
   throughput relative to baseline — HU 0.89, GU 0.72, SGX 0.48. *)

open Hyperenclave
module Resp_kv = Hyperenclave_workloads.Resp_kv

let records = 30_000 (* paper: 50k; scaled for bench runtime, same shape *)
let samples = 3_000

let service make_backend =
  let backend = make_backend () in
  Resp_kv.load backend ~records;
  let s = Resp_kv.service_time backend ~records ~samples in
  backend.Backend.destroy ();
  s

let run () =
  Util.banner "Figure 8d"
    "Redis (YCSB A) latency vs throughput; paper max-throughput ratios: HU \
     0.89, GU 0.72, SGX 0.48 of baseline.";
  let native () =
    Backend.native ~clock:(Cycles.create ()) ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:41L) ~handlers:(Resp_kv.handlers ())
      ~ocalls:(Resp_kv.ocalls ())
  in
  let hyper mode () =
    let platform = Platform.create ~seed:707L () in
    Backend.create platform
      {
        (Backend.config (Backend.Hyperenclave mode)) with
        Backend.handlers = Resp_kv.handlers ();
        ocalls = Resp_kv.ocalls ();
      }
  in
  let sgx () =
    Backend.sgx ~clock:(Cycles.create ()) ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:42L) ~handlers:(Resp_kv.handlers ())
      ~ocalls:(Resp_kv.ocalls ()) ()
  in
  let systems =
    [
      ("baseline", service native);
      ("HU", service (hyper Sgx_types.HU));
      ("GU", service (hyper Sgx_types.GU));
      ("Intel SGX", service sgx);
    ]
  in
  let base_service = List.assoc "baseline" systems in
  let max_kops s = 2.2e9 /. s /. 1000.0 in
  Util.print_table
    ~columns:[ "system"; "service cyc/op"; "max kops/s"; "vs baseline" ]
    (List.map
       (fun (name, s) ->
         [
           name;
           Util.fcyc s;
           Printf.sprintf "%.1f" (max_kops s);
           Printf.sprintf "%.2f" (base_service /. s);
         ])
       systems);
  (* Latency-throughput curves at rising offered load. *)
  let offered =
    List.init 10 (fun i ->
        max_kops base_service *. float_of_int (i + 1) /. 10.0)
  in
  print_newline ();
  Util.print_table
    ~columns:
      ("offered kops/s"
      :: List.map (fun (name, _) -> name ^ " lat us") systems)
    (List.map
       (fun kops ->
         Printf.sprintf "%.1f" kops
         :: List.map
              (fun (_, s) ->
                match
                  Resp_kv.latency_curve ~service_cycles:s ~offered_kops:[ kops ]
                with
                | [ (_, Some latency) ] -> Printf.sprintf "%.1f" latency
                | [ (_, None) ] -> "sat."
                | _ -> "?")
              systems)
       offered)
