(* Figure 8c: Lighttpd throughput for different page sizes (Sec. 7.4).

   Server inside Occlum on the enclave; 100 concurrent keep-alive clients
   over loopback in the paper — here throughput is 1/service-time, which
   for a single-threaded server under saturation is the same ranking.
   Paper: HU 81-88% of baseline, GU 69-78%, SGX 51-63%; the gaps are
   world-switch costs on the per-request/per-chunk socket OCALLs. *)

open Hyperenclave
module Httpd = Hyperenclave_workloads.Httpd

let page_sizes = [ 1024; 4 * 1024; 16 * 1024; 64 * 1024; 128 * 1024 ]
let requests = 60

let pages = List.map (fun s -> (Printf.sprintf "/p%d.html" s, s)) page_sizes

let serve_avg backend ~path =
  (* warm-up then measured run *)
  ignore (Httpd.serve backend ~path);
  let total = ref 0 in
  for _ = 1 to requests do
    total := !total + Httpd.serve backend ~path
  done;
  float_of_int !total /. float_of_int requests

let run () =
  Util.banner "Figure 8c"
    "Lighttpd throughput relative to the unprotected baseline vs page size; \
     paper: HU 0.81-0.88, GU 0.69-0.78, SGX 0.51-0.63.";
  let native () =
    Backend.native ~clock:(Cycles.create ()) ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:31L) ~handlers:(Httpd.handlers ~pages)
      ~ocalls:(Httpd.ocalls ())
  in
  let hyper mode () =
    let platform = Platform.create ~seed:606L () in
    Backend.create platform
      {
        (Backend.config (Backend.Hyperenclave mode)) with
        Backend.handlers = Httpd.handlers ~pages;
        ocalls = Httpd.ocalls ();
      }
  in
  let sgx () =
    Backend.sgx ~clock:(Cycles.create ()) ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:32L) ~handlers:(Httpd.handlers ~pages)
      ~ocalls:(Httpd.ocalls ()) ()
  in
  let backends =
    [
      ("baseline", native ());
      ("HU", hyper Sgx_types.HU ());
      ("GU", hyper Sgx_types.GU ());
      ("Intel SGX", sgx ());
    ]
  in
  let rows =
    List.map
      (fun size ->
        let path = Printf.sprintf "/p%d.html" size in
        let cycles =
          List.map (fun (name, b) -> (name, serve_avg b ~path)) backends
        in
        let base = List.assoc "baseline" cycles in
        (string_of_int (size / 1024) ^ " KB page")
        :: Printf.sprintf "%.0f rps" (Httpd.throughput_rps ~cycles_per_request:base)
        :: List.filter_map
             (fun (name, c) ->
               if name = "baseline" then None
               else Some (Printf.sprintf "%.2f" (base /. c)))
             cycles)
      page_sizes
  in
  List.iter (fun (_, b) -> b.Backend.destroy ()) backends;
  Util.print_table
    ~columns:[ "page"; "baseline"; "HU"; "GU"; "Intel SGX" ]
    rows
