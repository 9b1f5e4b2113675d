(* hyperenclave_cli: poke at the simulated platform from the shell.

   Subcommands:
     boot     bring a platform up and print the measured-boot state
     attest   generate a quote and verify it against golden values
     modes    print the world-switch cost table for the three modes
     run      run a workload on a chosen backend and print cycle costs
     stats    run an EPC-pressure demo and dump the telemetry snapshot

   Examples:
     dune exec bin/hyperenclave_cli.exe -- boot --seed 7
     dune exec bin/hyperenclave_cli.exe -- run --workload sqlite --backend hu
     dune exec bin/hyperenclave_cli.exe -- attest --tamper kernel
     dune exec bin/hyperenclave_cli.exe -- stats --json *)

open Hyperenclave
open Cmdliner

let verbose_arg =
  let doc = "Print RustMonitor event logs (launch, EINIT, violations)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let seed_arg =
  let doc = "Deterministic platform seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* --- boot ------------------------------------------------------------------- *)

let boot_cmd =
  let run verbose seed =
    setup_logs verbose;
    let p = Platform.create ~seed:(Int64.of_int seed) () in
    Printf.printf "platform seed %d\n" seed;
    Printf.printf "RustMonitor launched: %b\n" (Monitor.launched p.Platform.monitor);
    let base, n = Monitor.reserved_range p.Platform.monitor in
    Printf.printf "reserved region: frames [%#x, %#x) (%d MiB)\n" base (base + n)
      (n * 4096 / 1024 / 1024);
    Printf.printf "EPC free frames: %d\n"
      (Epc.free_count (Monitor.epc p.Platform.monitor));
    print_endline "measured boot event log:";
    List.iter
      (fun (e : Monitor.boot_event) ->
        Printf.printf "  PCR[%2d] %-10s %s\n" e.Monitor.pcr_index e.Monitor.label
          (String.sub (Sha256.to_hex e.Monitor.measurement) 0 32))
      (Monitor.boot_log p.Platform.monitor);
    Printf.printf "simulated boot cost: %d cycles\n" (Cycles.now p.Platform.clock)
  in
  Cmd.v (Cmd.info "boot" ~doc:"Boot a platform and print its measured state.")
    Term.(const run $ verbose_arg $ seed_arg)

(* --- modes ------------------------------------------------------------------ *)

let modes_cmd =
  let run () =
    let c = Cost_model.default in
    Printf.printf "%-12s %8s %8s %8s %8s %8s\n" "mode" "EENTER" "EEXIT" "AEX"
      "ERESUME" "ECALL";
    List.iter
      (fun mode ->
        Printf.printf "%-12s %8d %8d %8d %8d %8d\n" (Sgx_types.mode_name mode)
          (World_switch.eenter_cost c mode)
          (World_switch.eexit_cost c mode)
          (World_switch.aex_cost c mode)
          (World_switch.eresume_cost c mode)
          (World_switch.eenter_cost c mode + World_switch.eexit_cost c mode
          + World_switch.sdk_ecall_soft c mode))
      Sgx_types.all_modes;
    Printf.printf "%-12s %8s %8s %8s %8s %8d  (measured, Table 1)\n" "Intel SGX"
      "-" "-" "-" "-" c.Cost_model.sgx_ecall
  in
  Cmd.v
    (Cmd.info "modes"
       ~doc:"Print world-switch costs for GU/HU/P enclaves (cycles).")
    Term.(const run $ const ())

(* --- attest ----------------------------------------------------------------- *)

let attest_cmd =
  let tamper =
    (* Any other name is a usage error: tampering with a component the
       chain does not have would verify an untampered platform. *)
    let components =
      List.map
        (fun (c : Boot.component) -> (c.Boot.name, c.Boot.name))
        (Boot.default_chain (Rng.create ~seed:0L))
    in
    let doc =
      "Tamper with the named boot component, "
      ^ Arg.doc_alts_enum ~quoted:false components
      ^ "."
    in
    Arg.(
      value
      & opt (some (enum components)) None
      & info [ "tamper" ] ~docv:"COMPONENT" ~doc)
  in
  let run seed tamper =
    (* Golden values always come from the untampered build. *)
    let reference = Platform.create ~seed:(Int64.of_int seed) () in
    let make_enclave p =
      Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
        ~signer:p.Platform.signer
        ~config:(Urts.default_config Sgx_types.GU)
        ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
        ~ocalls:[]
    in
    let reference_enclave = make_enclave reference in
    let golden =
      Verifier.golden_of_boot_log
        ~ek_public:(Tpm.ek_public reference.Platform.tpm)
        (Monitor.boot_log reference.Platform.monitor)
    in
    let subject, subject_enclave =
      match tamper with
      | None -> (reference, reference_enclave)
      | Some name ->
          let p = Platform.create ~seed:(Int64.of_int seed) ~tamper_boot:name () in
          (p, make_enclave p)
    in
    ignore subject;
    let nonce = Bytes.of_string "cli-nonce" in
    let quote = Urts.gen_quote subject_enclave ~report_data:nonce in
    Printf.printf "MRENCLAVE: %s\n" (Sha256.to_hex (Urts.mrenclave subject_enclave));
    Printf.printf "hapk:      %s\n" (Sha256.to_hex quote.Monitor.hapk);
    let policy =
      {
        Verifier.expected_mrenclave = Some (Urts.mrenclave reference_enclave);
        expected_mrsigner = None;
        allow_debug = false;
      }
    in
    match Verifier.verify ~golden ~policy ~report_data:nonce quote with
    | Verifier.Ok _ -> print_endline "verification: OK"
    | Verifier.Error failure ->
        Format.printf "verification: FAILED — %a@." Verifier.pp_failure failure;
        exit 1
  in
  Cmd.v
    (Cmd.info "attest"
       ~doc:"Generate a HyperEnclave quote and verify the full chain.")
    Term.(const run $ seed_arg $ tamper)

(* --- run -------------------------------------------------------------------- *)

type backend_choice = Native | Gu | Hu | P | Sgx_b

let backend_conv =
  Arg.enum
    [ ("native", Native); ("gu", Gu); ("hu", Hu); ("p", P); ("sgx", Sgx_b) ]

let make_backend choice ~handlers ~ocalls =
  match choice with
  | Native ->
      Backend.native ~clock:(Cycles.create ()) ~cost:Cost_model.default
        ~rng:(Rng.create ~seed:1L) ~handlers ~ocalls
  | Sgx_b ->
      Backend.sgx ~clock:(Cycles.create ()) ~cost:Cost_model.default
        ~rng:(Rng.create ~seed:2L) ~handlers ~ocalls ()
  | Gu | Hu | P ->
      let mode =
        match choice with
        | Gu -> Sgx_types.GU
        | Hu -> Sgx_types.HU
        | P -> Sgx_types.P
        | Native | Sgx_b -> assert false
      in
      let p = Platform.create ~seed:99L () in
      Backend.create p
        { (Backend.config (Backend.Hyperenclave mode)) with Backend.handlers; ocalls }

let run_cmd =
  let module W = Workloads in
  let workload_conv =
    Arg.enum
      [ ("nbench", `Nbench); ("sqlite", `Sqlite); ("httpd", `Httpd); ("redis", `Redis) ]
  in
  let workload_arg =
    Arg.(
      value
      & opt workload_conv `Nbench
      & info [ "workload" ] ~docv:"NAME" ~doc:"nbench|sqlite|httpd|redis")
  in
  let backend_arg =
    Arg.(
      value
      & opt backend_conv Native
      & info [ "backend" ] ~docv:"BACKEND" ~doc:"native|gu|hu|p|sgx")
  in
  let run workload choice =
    match workload with
    | `Nbench ->
        let backend = make_backend choice ~handlers:(W.Nbench.handlers ()) ~ocalls:[] in
        List.iter
          (fun (name, cycles) -> Printf.printf "%-18s %12d cycles\n" name cycles)
          (W.Nbench.run_suite backend ~iterations:3);
        backend.Backend.destroy ()
    | `Sqlite ->
        let backend = make_backend choice ~handlers:(W.Kvdb.handlers ()) ~ocalls:[] in
        let records = 20_000 and ops = 5_000 in
        ignore (W.Kvdb.load backend ~records);
        let cycles = W.Kvdb.run_ops backend ~records ~ops in
        Printf.printf "%d YCSB-A ops in %d cycles = %.1f kops/s\n" ops cycles
          (W.Kvdb.throughput_kops ~cycles ~ops);
        backend.Backend.destroy ()
    | `Httpd ->
        let pages = [ ("/index.html", 16384) ] in
        let backend =
          make_backend choice ~handlers:(W.Httpd.handlers ~pages)
            ~ocalls:(W.Httpd.ocalls ())
        in
        let cycles = W.Httpd.serve backend ~path:"/index.html" in
        Printf.printf "16 KB page served in %d cycles = %.0f req/s\n" cycles
          (W.Httpd.throughput_rps ~cycles_per_request:(float_of_int cycles));
        backend.Backend.destroy ()
    | `Redis ->
        let backend =
          make_backend choice ~handlers:(W.Resp_kv.handlers ())
            ~ocalls:(W.Resp_kv.ocalls ())
        in
        W.Resp_kv.load backend ~records:2000;
        let s = W.Resp_kv.service_time backend ~records:2000 ~samples:1000 in
        Printf.printf "service time %.0f cycles/op = %.1f kops/s max\n" s
          (2.2e9 /. s /. 1000.0);
        backend.Backend.destroy ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload on a chosen backend.")
    Term.(const run $ workload_arg $ backend_arg)

(* --- stats ------------------------------------------------------------------ *)

let stats_cmd =
  let json_arg =
    let doc = "Emit the snapshot as JSON instead of the human rendering." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run verbose seed json =
    setup_logs verbose;
    (* A demo run sized to exercise every instrumented path: 2 MiB of EPC
       (512 frames) against a 700-page working set forces demand commits,
       evictions and swap-ins; the echo ECALL and its OCALL cover the SDK
       legs. *)
    let p =
      Platform.create ~seed:(Int64.of_int seed) ~phys_mb:134 ~os_mb:128
        ~monitor_mb:4 ()
    in
    let handle =
      Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
        ~signer:p.Platform.signer
        ~config:
          { (Urts.default_config Sgx_types.GU) with Urts.elrange_pages = 2048 }
        ~ecalls:
          [
            ( 1,
              fun (tenv : Tenv.t) _ ->
                let pages = 700 in
                let base = tenv.Tenv.malloc (pages * 4096) in
                for i = 0 to pages - 1 do
                  tenv.Tenv.write ~va:(base + (i * 4096))
                    (Bytes.of_string (Printf.sprintf "page-%04d" i))
                done;
                for i = 0 to pages - 1 do
                  ignore (tenv.Tenv.read ~va:(base + (i * 4096)) ~len:9)
                done;
                Bytes.empty );
            ( 2,
              fun (tenv : Tenv.t) input ->
                tenv.Tenv.ocall ~id:1 ~data:input Edge.In_out );
          ]
        ~ocalls:[ (1, fun request -> Bytes.cat request request) ]
    in
    ignore (Urts.ecall handle ~id:1 ~direction:Edge.User_check ());
    ignore
      (Urts.ecall handle ~id:2
         ~data:(Bytes.of_string "telemetry-demo")
         ~direction:Edge.In_out ());
    Urts.destroy handle;
    let snap = Telemetry.snapshot (Monitor.telemetry p.Platform.monitor) in
    if json then print_endline (Telemetry.to_json snap)
    else begin
      Printf.printf "telemetry after demo run (seed %d):\n" seed;
      Format.printf "%a@." Telemetry.pp snap
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run an EPC-pressure demo and dump the monitor telemetry snapshot.")
    Term.(const run $ verbose_arg $ seed_arg $ json_arg)

(* --- sign ------------------------------------------------------------------ *)

let sign_cmd =
  (* The sgx_sign equivalent: predict MRENCLAVE for a build configuration
     and print the SIGSTRUCT summary a vendor would ship. *)
  let code_seed_arg =
    Arg.(
      value
      & opt string "hyperenclave-default-app"
      & info [ "code" ] ~docv:"SEED" ~doc:"Code identity seed.")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("gu", Sgx_types.GU); ("hu", Sgx_types.HU); ("p", Sgx_types.P) ])
          Sgx_types.GU
      & info [ "mode" ] ~docv:"MODE" ~doc:"gu|hu|p")
  in
  let run seed code_seed mode =
    let p = Platform.create ~seed:(Int64.of_int seed) () in
    let handle =
      Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
        ~signer:p.Platform.signer
        ~config:{ (Urts.default_config mode) with Urts.code_seed }
        ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
        ~ocalls:[]
    in
    let enclave = Urts.enclave handle in
    Printf.printf "code identity : %s\n" code_seed;
    Printf.printf "mode          : %s\n" (Sgx_types.mode_name mode);
    Printf.printf "MRENCLAVE     : %s\n" (Sha256.to_hex (Urts.mrenclave handle));
    Printf.printf "MRSIGNER      : %s\n" (Sha256.to_hex enclave.Enclave.mrsigner);
    Printf.printf "ISV prod/svn  : %d / %d\n" enclave.Enclave.isv_prod_id
      enclave.Enclave.isv_svn;
    Urts.destroy handle
  in
  Cmd.v
    (Cmd.info "sign"
       ~doc:"Predict MRENCLAVE for a build configuration (sgx_sign analogue).")
    Term.(const run $ seed_arg $ code_seed_arg $ mode_arg)

let () =
  let doc = "HyperEnclave reproduction command-line tool" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "hyperenclave_cli" ~version:"1.0.0" ~doc)
          [ boot_cmd; modes_cmd; attest_cmd; run_cmd; sign_cmd; stats_cmd ]))
