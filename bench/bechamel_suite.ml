(* Wall-clock micro-benchmarks of the simulator itself, one per
   table/figure, via Bechamel.  These do not reproduce paper numbers (the
   paper's numbers are simulated cycles, printed by the other bench
   modules); they document that the harness is fast enough to iterate on
   and catch performance regressions in the models. *)

open Bechamel
open Toolkit
open Hyperenclave
module Nbench = Hyperenclave_workloads.Nbench
module Kvdb = Hyperenclave_workloads.Kvdb
module Httpd = Hyperenclave_workloads.Httpd
module Resp_kv = Hyperenclave_workloads.Resp_kv

let make_tests () =
  (* Shared fixtures, built once. *)
  let platform = Platform.create ~seed:111L () in
  let gu =
    Backend.create platform
      {
        (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
        Backend.handlers = [ (1, fun _ _ -> Bytes.empty) ];
      }
  in
  let p_enclave =
    Urts.create ~kmod:platform.Platform.kmod ~proc:platform.Platform.proc
      ~rng:platform.Platform.rng ~signer:platform.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.P) with Urts.code_seed = "bs-p" }
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              tenv.Tenv.register_exception_handler ~vector:"#UD" (fun _ -> true);
              tenv.Tenv.raise_exception Sgx_types.Ud;
              Bytes.empty );
        ]
      ~ocalls:[]
  in
  let native_clock = Cycles.create () in
  let native =
    Backend.native ~clock:native_clock ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:1L)
      ~handlers:
        (Nbench.handlers () @ Kvdb.handlers ()
        @ Httpd.handlers ~pages:[ ("/x.html", 16384) ]
        @ Resp_kv.handlers ())
      ~ocalls:(Httpd.ocalls () @ Resp_kv.ocalls ())
  in
  ignore (Kvdb.load native ~records:1000);
  Resp_kv.load native ~records:256;
  let mem_sim =
    Mem_sim.create ~clock:(Cycles.create ()) ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:2L) ~engine:Hw.Mem_crypto.Sme ()
  in
  let gen =
    Hyperenclave_workloads.Ycsb.create ~rng:(Rng.create ~seed:3L) ~records:256 ()
  in
  [
    Test.make ~name:"table1: GU empty ECALL"
      (Staged.stage (fun () -> ignore (gu.Backend.call ~id:1 ~direction:Edge.In ())));
    Test.make ~name:"table2: P-Enclave #UD"
      (Staged.stage (fun () ->
           ignore (Urts.ecall p_enclave ~id:1 ~direction:Edge.In ())));
    Test.make ~name:"fig7: 16KB in&out ECALL"
      (Staged.stage
         (let payload = Bytes.make 16384 'x' in
          fun () ->
            ignore (gu.Backend.call ~id:1 ~data:payload ~direction:Edge.In_out ())));
    Test.make ~name:"fig8a: numeric sort iter"
      (Staged.stage (fun () ->
           ignore
             (native.Backend.call ~id:(Nbench.ecall_id 0)
                ~data:(Nbench.encode_iterations 1) ~direction:Edge.In ())));
    Test.make ~name:"fig8b: SQLite YCSB op"
      (Staged.stage (fun () ->
           ignore (Kvdb.run_ops native ~records:1000 ~ops:1)));
    Test.make ~name:"fig8c: HTTP request"
      (Staged.stage (fun () -> ignore (Httpd.serve native ~path:"/x.html")));
    Test.make ~name:"fig8d: Redis op"
      (Staged.stage (fun () ->
           ignore (Resp_kv.op native (Hyperenclave_workloads.Ycsb.next_op_a gen))));
    Test.make ~name:"table3: null syscall"
      (Staged.stage (fun () -> Kernel.null_syscall platform.Platform.kernel));
    Test.make ~name:"fig10: MMU translate"
      (Staged.stage (fun () ->
           ignore
             (Mmu.translate platform.Platform.cpu ~access:Hw.Mmu.Read ~user:true
                (Hyperenclave_os.Process.mmap_base))));
    Test.make ~name:"fig11: 1MB random scan"
      (Staged.stage (fun () ->
           Mem_sim.random_access mem_sim ~base:0 ~working_set:(1 lsl 20)
             ~count:1024 ~write:false));
    (* Optimized-kernel micro-benchmarks: one entry per hot path touched
       by the wall-clock fast-path work, so regressions show up here
       before they show up as minutes on the full harness. *)
    Test.make ~name:"kernel: sha256 4KB digest"
      (Staged.stage
         (let block = Bytes.make 4096 's' in
          fun () -> ignore (Crypto.Sha256.digest_bytes block)));
    Test.make ~name:"kernel: aes-xts 4KB"
      (Staged.stage
         (let key = Bytes.make 16 'k' and buf = Bytes.make 4096 'p' in
          fun () -> ignore (Crypto.Aes.xts_encrypt ~key ~tweak:0x40000 buf)));
    Test.make ~name:"kernel: aes-ctr 4KB"
      (Staged.stage
         (let key = Bytes.make 16 'k'
          and nonce = Bytes.make 12 'n'
          and buf = Bytes.make 4096 'p' in
          fun () -> ignore (Crypto.Aes.ctr_transform ~key ~nonce buf)));
    Test.make ~name:"kernel: hmac 1KB"
      (Staged.stage
         (let key = Bytes.make 32 'k' and msg = Bytes.make 1024 'm' in
          fun () -> ignore (Crypto.Hmac.hmac ~key msg)));
    (* The same MAC under a key prepared once, as the attested channel
       runs it: the gap to the row above is the per-MAC key setup. *)
    Test.make ~name:"kernel: hmac 1KB (prepared key)"
      (Staged.stage
         (let key = Crypto.Hmac.prepare ~key:(Bytes.make 32 'k')
          and msg = Bytes.make 1024 'm' in
          fun () ->
            Crypto.Sha256.update (Crypto.Hmac.start key) msg;
            ignore (Crypto.Hmac.finish key)));
    Test.make ~name:"kernel: seq_scan 1MB"
      (Staged.stage (fun () ->
           Mem_sim.seq_scan mem_sim ~base:0 ~bytes:(1 lsl 20) ~write:false));
    Test.make ~name:"kernel: mmu warm write"
      (Staged.stage (fun () ->
           ignore
             (Mmu.translate platform.Platform.cpu ~access:Hw.Mmu.Write
                ~user:true
                (Hyperenclave_os.Process.mmap_base))));
  ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Bechamel.Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let tests = Test.make_grouped ~name:"hyperenclave" ~fmt:"%s %s" (make_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let run () =
  Util.banner "Bechamel" "Wall-clock cost of the simulator (ns per op).";
  let results = benchmark () in
  let clock_results =
    Hashtbl.find results (Bechamel.Measure.label Instance.monotonic_clock)
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some [ x ] -> Printf.sprintf "%.0f ns" x
        | Some _ | None -> "n/a"
      in
      rows := [ name; estimate ] :: !rows)
    clock_results;
  Util.print_table ~columns:[ "benchmark"; "per run" ]
    (List.sort compare !rows)
