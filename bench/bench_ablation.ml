(* Ablations over the design choices DESIGN.md calls out — not paper
   figures, but the trade-offs behind them:

   A1. EDMM (demand-committed heap) vs. SGX1-style full pre-allocation:
       Sec. 3.2 claims EDMM "reduces enclave build time"; quantify it.
   A2. Switchless OCALLs vs. regular OCALLs for chatty I/O, per mode.
   A3. The Table-2 GC scenario on all three modes (the paper shows GU/P;
       HU fills in the picture: hypercall-based like GU, minus nesting).
   A4. Timer-frequency sensitivity of the NBench overhead — how the
       Fig. 8a result degrades as interrupt (AEX) rates grow toward
       side-channel-attack territory.
   A5. The price of fault tolerance: ECALL latency with a transient
       injected fault absorbed by the SDK's retry/backoff path, vs the
       clean call, per mode.
   A6. The switchless slot ring vs individual ECALLs, per mode: the
       ring pays no world switch, so its win tracks what each mode's
       ECALL costs — a GU/P VMRUN round trip vs HU's cheaper SYSCALL
       path. *)

open Hyperenclave
module Nbench = Hyperenclave_workloads.Nbench

(* --- A1: enclave build time, pre-allocated vs EDMM -------------------------- *)

let build_time ~heap_pages ~preallocate =
  let p = Platform.create ~seed:801L () in
  (* App startup touches the whole heap once.  Pre-allocated: the heap was
     EADDed as data pages at build time (starting right after the 8 code
     pages).  EDMM: the heap is malloc'd and commits on first touch. *)
  let touch_all (tenv : Tenv.t) _ =
    let base =
      if preallocate then 0x1_0000_0000 + (8 * 4096)
      else tenv.Tenv.malloc (heap_pages * 4096)
    in
    for i = 0 to heap_pages - 1 do
      tenv.Tenv.touch ~va:(base + (i * 4096)) ~write:true
    done;
    Bytes.empty
  in
  let config =
    {
      (Urts.default_config Sgx_types.GU) with
      Urts.elrange_pages = heap_pages + 64;
      data_pages = (if preallocate then heap_pages else 8);
    }
  in
  let build_start = Cycles.now p.Platform.clock in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer ~config
      ~ecalls:[ (1, touch_all) ]
      ~ocalls:[]
  in
  let build = Cycles.now p.Platform.clock - build_start in
  let _, first_use =
    Cycles.time p.Platform.clock (fun () ->
        ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ()))
  in
  Urts.destroy handle;
  (build, first_use)

let ablation_edmm () =
  Util.banner "Ablation A1"
    "Enclave build time: SGX1-style full pre-allocation vs EDMM demand \
     commit (Sec. 3.2: EDMM 'reduces enclave build time').";
  let rows =
    List.map
      (fun heap_pages ->
        let pre_build, pre_use = build_time ~heap_pages ~preallocate:true in
        let edmm_build, edmm_use = build_time ~heap_pages ~preallocate:false in
        [
          Printf.sprintf "%d KB heap" (heap_pages * 4);
          Printf.sprintf "%.2f Mcyc" (float_of_int pre_build /. 1e6);
          Printf.sprintf "%.2f Mcyc" (float_of_int edmm_build /. 1e6);
          Printf.sprintf "%.1fx" (float_of_int pre_build /. float_of_int edmm_build);
          Printf.sprintf "%.2f Mcyc" (float_of_int pre_use /. 1e6);
          Printf.sprintf "%.2f Mcyc" (float_of_int edmm_use /. 1e6);
        ])
      [ 256; 1024; 4096 ]
  in
  Util.print_table
    ~columns:
      [ "heap"; "build pre"; "build EDMM"; "speedup"; "1st use pre"; "1st use EDMM" ]
    rows

(* --- A2: switchless vs regular OCALLs ---------------------------------------- *)

let ablation_switchless () =
  Util.banner "Ablation A2"
    "Chatty I/O (1,000 tiny OCALLs): regular world switches vs switchless \
     worker-thread calls, per operation mode.";
  let rows =
    List.map
      (fun mode ->
        let p = Platform.create ~seed:802L () in
        let measure switchless =
          let handle =
            Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc
              ~rng:p.Platform.rng ~signer:p.Platform.signer
              ~config:
                {
                  (Urts.default_config mode) with
                  Urts.code_seed =
                    Printf.sprintf "a2-%s-%b" (Sgx_types.mode_name mode) switchless;
                }
              ~ecalls:
                [
                  ( 1,
                    fun (tenv : Tenv.t) _ ->
                      for _ = 1 to 1000 do
                        if switchless then
                          ignore
                            (tenv.Tenv.ocall_switchless ~id:9
                               ~data:(Bytes.of_string "w") ())
                        else
                          ignore (tenv.Tenv.ocall ~id:9 ~data:(Bytes.of_string "w") Edge.In)
                      done;
                      Bytes.empty );
                ]
              ~ocalls:[ (9, fun _ -> Bytes.empty) ]
          in
          let _, cycles =
            Cycles.time p.Platform.clock (fun () ->
                ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ()))
          in
          Urts.destroy handle;
          cycles / 1000
        in
        let regular = measure false in
        let switchless = measure true in
        [
          Sgx_types.mode_name mode;
          Printf.sprintf "%d cyc" regular;
          Printf.sprintf "%d cyc" switchless;
          Printf.sprintf "%.1fx" (float_of_int regular /. float_of_int switchless);
        ])
      Sgx_types.all_modes
  in
  Util.print_table ~columns:[ "mode"; "OCALL"; "switchless"; "speedup" ] rows

(* --- A3: GC scenario across all modes ----------------------------------------- *)

let gc_fault_cost mode =
  let p = Platform.create ~seed:803L () in
  let result = ref 0 in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config mode)
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              let buf = tenv.Tenv.malloc (8 * 4096) in
              for i = 0 to 7 do
                tenv.Tenv.write ~va:(buf + (i * 4096)) (Bytes.of_string "x")
              done;
              tenv.Tenv.register_exception_handler ~vector:"#PF" (fun vector ->
                  match vector with
                  | Sgx_types.Pf { va; _ } ->
                      tenv.Tenv.compute tenv.Tenv.cost.Cost_model.pf_handler_work;
                      tenv.Tenv.set_page_perms ~vpn:(va / 4096)
                        ~perms:Page_table.rw ~grant:true;
                      true
                  | _ -> false);
              let samples = ref [] in
              for i = 1 to 200 do
                let va = buf + (i mod 8 * 4096) in
                tenv.Tenv.set_page_perms ~vpn:(va / 4096) ~perms:Page_table.ro
                  ~grant:false;
                let _, c =
                  Cycles.time tenv.Tenv.clock (fun () ->
                      tenv.Tenv.write ~va (Bytes.of_string "y"))
                in
                samples := c :: !samples
              done;
              result := Util.median !samples;
              Bytes.empty );
        ]
      ~ocalls:[]
  in
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  Urts.destroy handle;
  !result

let ablation_gc_modes () =
  Util.banner "Ablation A3"
    "The Table-2 GC #PF scenario on every mode (paper reports GU and P).";
  Util.print_table ~columns:[ "mode"; "#PF handled (cycles)" ]
    (List.map
       (fun mode ->
         [ Sgx_types.mode_name mode; Util.cyc (gc_fault_cost mode) ])
       [ Sgx_types.GU; Sgx_types.HU; Sgx_types.P ])

(* --- A4: timer-rate sensitivity ------------------------------------------------ *)

let ablation_timer_rate () =
  Util.banner "Ablation A4"
    "NBench (numeric sort) relative score vs timer-interrupt period: the \
     Fig. 8a overhead as tick rates climb toward interrupt-attack rates.";
  let run_with_period backend_kind period =
    let handlers =
      [
        ( 1,
          fun (env : Backend.env) input ->
            let iterations = int_of_string (Bytes.to_string input) in
            let rng = Rng.create ~seed:4242L in
            let timer =
              Hyperenclave_workloads.Timer.create ~period env
            in
            for _ = 1 to iterations do
              (* one numeric-sort-sized chunk of work *)
              let a = Array.init 2048 (fun _ -> Rng.int rng 100000) in
              Array.sort compare a;
              env.Backend.compute (2048 * 11 * 6);
              Hyperenclave_workloads.Timer.check timer env
            done;
            Bytes.empty );
      ]
    in
    let backend =
      match backend_kind with
      | `Native ->
          Backend.native ~clock:(Cycles.create ()) ~cost:Cost_model.default
            ~rng:(Rng.create ~seed:1L) ~handlers ~ocalls:[]
      | `Gu ->
          let p = Platform.create ~seed:804L () in
          Backend.create p
            {
              (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
              Backend.handlers;
            }
    in
    let _, cycles =
      Cycles.time backend.Backend.clock (fun () ->
          backend.Backend.call ~id:1 ~data:(Bytes.of_string "40")
            ~direction:Edge.In ()
          |> ignore)
    in
    backend.Backend.destroy ();
    cycles
  in
  let rows =
    List.map
      (fun (label, period) ->
        let native = run_with_period `Native period in
        let gu = run_with_period `Gu period in
        [
          label;
          Printf.sprintf "%.3f" (float_of_int native /. float_of_int gu);
        ])
      [
        ("1 kHz (2.2M cyc)", 2_200_000);
        ("4 kHz (550k cyc)", 550_000);
        ("20 kHz (110k cyc)", 110_000);
        ("100 kHz (22k cyc)", 22_000);
      ]
  in
  Util.print_table ~columns:[ "tick rate"; "GU relative score" ] rows

(* --- A5: retry/backoff cost of an absorbed transient fault ------------------ *)

let ablation_fault_retry () =
  Util.banner "Ablation A5"
    "Cost of fault tolerance: one transient fault on the ECALL path, \
     absorbed by the uRTS bounded-retry/backoff loop, vs the clean call \
     (cycles; deterministic schedules from lib/fault).";
  let measure mode ~faulted =
    let p = Platform.create ~seed:805L () in
    let handle =
      Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc
        ~rng:p.Platform.rng ~signer:p.Platform.signer
        ~config:(Urts.default_config mode)
        ~ecalls:[ (1, fun _tenv input -> input) ]
        ~ocalls:[]
    in
    (* Warm call so both columns start from identical TLB/paging state. *)
    ignore (Urts.ecall handle ~id:1 ~data:(Bytes.of_string "w") ~direction:Edge.In_out ());
    let tel = Telemetry.create () in
    if faulted then
      Fault.install ~telemetry:tel
        [ { Fault.site = "sdk.ms_copy_in"; nth = 1; kind = Fault.Transient } ];
    let _, cycles =
      Cycles.time p.Platform.clock (fun () ->
          ignore
            (Urts.ecall handle ~id:1 ~data:(Bytes.make 1024 'x')
               ~direction:Edge.In_out ()))
    in
    Fault.clear ();
    Urts.destroy handle;
    (cycles, Telemetry.counter tel "fault.retried")
  in
  let rows =
    List.map
      (fun mode ->
        let clean, _ = measure mode ~faulted:false in
        let faulted, retries = measure mode ~faulted:true in
        [
          Sgx_types.mode_name mode;
          string_of_int clean;
          string_of_int faulted;
          Printf.sprintf "%+d" (faulted - clean);
          string_of_int retries;
        ])
      Sgx_types.all_modes
  in
  Util.print_table
    ~columns:[ "mode"; "clean ECALL"; "1 transient"; "delta"; "retries" ]
    rows;
  Printf.printf
    "  The delta is one aborted marshalling leg + backoff + a full re-run:\n\
    \  bounded, typed, and invisible to the caller.\n"

(* --- A6: the switchless slot ring, per operation mode ----------------------- *)

let ablation_batching () =
  Util.banner "Ablation A6"
    "Switchless slot ring vs individual ECALLs at K = 8, per mode: the \
     ring pays no world switch, so the win tracks how expensive each \
     mode's ECALL is (GU/P: VMRUN round trip; HU: SYSCALL).";
  let rows =
    List.map
      (fun mode ->
        let ringed, single =
          Bench_throughput.ring_vs_ecalls ~seed:806L ~mode ~k:8 ()
        in
        [
          Sgx_types.mode_name mode;
          string_of_int ringed;
          string_of_int single;
          string_of_int (ringed / 8);
          string_of_int (single / 8);
          Printf.sprintf "%.2fx" (float_of_int single /. float_of_int ringed);
        ])
      Sgx_types.all_modes
  in
  Util.print_table
    ~columns:
      [ "mode"; "K=8 ring"; "8 ECALLs"; "cyc/req ring"; "cyc/req ECALL"; "win" ]
    rows

let run () =
  ablation_edmm ();
  ablation_switchless ();
  ablation_gc_modes ();
  ablation_timer_rate ();
  ablation_fault_retry ();
  ablation_batching ()
