(* Table 1: latency of SGX primitives (EENTER, EEXIT, ECALL, OCALL) on
   HyperEnclave's three modes vs. Intel SGX, in CPU cycles.

   Methodology mirrors Sec. 7.1: empty edge calls with no explicit
   parameters, median over many runs.  EENTER/EEXIT are measured at the
   emulated-instruction level straight against the monitor (the paper
   could not do this on SGX silicon; neither do we for the SGX model). *)

open Hyperenclave

let iterations = 2000

let measure_mode platform mode =
  let ocall_cycles = ref [] in
  let handlers =
    [
      (1, fun (_ : Backend.env) (_ : bytes) -> Bytes.empty);
      ( 2,
        fun (env : Backend.env) _ ->
          let _, c =
            Cycles.time env.Backend.clock (fun () -> env.Backend.ocall ~id:9 ())
          in
          ocall_cycles := c :: !ocall_cycles;
          Bytes.empty );
    ]
  in
  let backend =
    Backend.create platform
      {
        (Backend.config (Backend.Hyperenclave mode)) with
        Backend.handlers;
        ocalls = [ (9, fun _ -> Bytes.empty) ];
      }
  in
  let ecall_samples =
    List.init iterations (fun _ ->
        let _, c =
          Cycles.time platform.Platform.clock (fun () ->
              backend.Backend.call ~id:1 ~direction:Edge.In ())
        in
        c)
  in
  for _ = 1 to iterations / 4 do
    ignore (backend.Backend.call ~id:2 ~direction:Edge.In ())
  done;
  (* Instruction-level EENTER/EEXIT against the monitor. *)
  let enclave_handle =
    Urts.create ~kmod:platform.Platform.kmod ~proc:platform.Platform.proc
      ~rng:platform.Platform.rng ~signer:platform.Platform.signer
      ~config:{ (Urts.default_config mode) with Urts.code_seed = "t1-raw" }
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  let monitor = Urts.monitor enclave_handle in
  let enclave = Urts.enclave enclave_handle in
  let eenter_samples = ref [] and eexit_samples = ref [] in
  for _ = 1 to iterations do
    match Enclave.free_tcs enclave with
    | None -> failwith "no TCS"
    | Some tcs ->
        let _, enter =
          Cycles.time platform.Platform.clock (fun () ->
              Monitor.eenter monitor enclave ~tcs ~return_va:Urts.aep)
        in
        let _, exit_c =
          Cycles.time platform.Platform.clock (fun () ->
              Monitor.eexit monitor enclave ~target_va:Urts.aep)
        in
        eenter_samples := enter :: !eenter_samples;
        eexit_samples := exit_c :: !eexit_samples
  done;
  backend.Backend.destroy ();
  Urts.destroy enclave_handle;
  ( Util.median !eenter_samples,
    Util.median !eexit_samples,
    Util.median ecall_samples,
    Util.median !ocall_cycles )

let measure_sgx () =
  let clock = Cycles.create () in
  let rng = Rng.create ~seed:77L in
  let ocall_cycles = ref [] in
  let backend =
    Backend.sgx ~clock ~cost:Cost_model.default ~rng
      ~handlers:
        [
          (1, fun _ _ -> Bytes.empty);
          ( 2,
            fun (env : Backend.env) _ ->
              let _, c = Cycles.time clock (fun () -> env.Backend.ocall ~id:9 ()) in
              ocall_cycles := c :: !ocall_cycles;
              Bytes.empty );
        ]
      ~ocalls:[ (9, fun _ -> Bytes.empty) ]
      ()
  in
  let ecall_samples =
    List.init iterations (fun _ ->
        let _, c =
          Cycles.time clock (fun () -> backend.Backend.call ~id:1 ~direction:Edge.In ())
        in
        c)
  in
  for _ = 1 to iterations / 4 do
    ignore (backend.Backend.call ~id:2 ~direction:Edge.In ())
  done;
  (Util.median ecall_samples, Util.median !ocall_cycles)

let run () =
  Util.banner "Table 1" "Latency of SGX primitives (CPU cycles); paper: SGX \
                         ECALL 14,432 / OCALL 12,432; HU 1163/1144/8440/4120, \
                         GU 1704/1319/9480/4920, P 1649/1401/9700/5260.";
  let sgx_ecall, sgx_ocall = measure_sgx () in
  let rows =
    [
      [ "Intel SGX"; "-"; "-"; Util.cyc sgx_ecall; Util.cyc sgx_ocall ];
    ]
    @ List.map
        (fun mode ->
          let platform = Platform.create ~seed:101L () in
          let eenter, eexit, ecall, ocall = measure_mode platform mode in
          [
            Sgx_types.mode_name mode;
            Util.cyc eenter;
            Util.cyc eexit;
            Util.cyc ecall;
            Util.cyc ocall;
          ])
        [ Sgx_types.HU; Sgx_types.GU; Sgx_types.P ]
  in
  Util.print_table ~columns:[ ""; "EENTER"; "EEXIT"; "ECALL"; "OCALL" ] rows
