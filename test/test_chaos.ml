(* Chaos suite: hundreds of seeded fault schedules against real
   workloads through the unified backend layer.

   The oracle is the trichotomy — under any injected fault schedule a
   call must end in exactly one of
     - clean success (with a bit-correct reply: no silent corruption),
     - a clean typed error ([Fault.Injected] / [Urts.Enclave_error] /
       a rejected argument),
     - a deliberate monitor refusal ([Monitor.Security_violation]),
   and the monitor invariant checker must be green at the instant of
   every injection (sites fire pre-mutation) and after every schedule.

   Every schedule derives from a printed integer seed; a failure message
   carries the seed and the decoded plan, and re-running the suite (or
   [Fault.plan_of_seed <seed>L] by hand) reproduces it exactly. *)

open Hyperenclave

(* ------------------------------------------------------------------ *)
(* Aggregate accounting across the whole suite                         *)

let tel = Telemetry.create ()
let schedules = ref 0
let successes = ref 0
let typed_errors = ref 0
let violations = ref 0
let sites_fired : (string, unit) Hashtbl.t = Hashtbl.create 16

let record = function
  | Backend.Success _ -> incr successes
  | Backend.Typed_error _ -> incr typed_errors
  | Backend.Violation _ -> incr violations

(* The trichotomy classifier for paths that don't go through
   [Backend.protected_call] (enclave build, quote generation). *)
let classify f =
  match f () with
  | v -> Backend.Success v
  | exception Monitor.Security_violation msg -> Backend.Violation msg
  | exception Fault.Injected { site; kind } ->
      Backend.Typed_error (Fault.message ~site kind)
  | exception Urts.Enclave_error msg -> Backend.Typed_error ("enclave: " ^ msg)
  | exception Invalid_argument msg ->
      Backend.Typed_error ("invalid-argument: " ^ msg)

(* Run one schedule body; anything escaping the trichotomy (an
   unexpected exception, a corrupted reply reported via [failwith])
   fails the test with the reproducing seed and plan. *)
let with_context ~group ~seed ~plan f =
  incr schedules;
  match f () with
  | () -> Fault.clear ()
  | exception exn ->
      Fault.clear ();
      Alcotest.failf "[%s] seed=%d plan=%s: %s" group seed plan
        (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* The workload: echo, a page-walking heap check, interrupt + OCALL    *)

let handlers =
  [
    ( 1,
      fun (env : Backend.env) input ->
        env.Backend.compute 200;
        Bytes.map Char.uppercase_ascii input );
    ( 2,
      (* Write a recognizable pattern across [n] heap pages, then read
         everything back; the returned bad-page count is the suite's
         silent-corruption detector.  On the HyperEnclave backends this
         demand-commits real EPC frames, so injected EPC pressure turns
         into genuine EWB/ELDU traffic. *)
      fun (env : Backend.env) input ->
        let pages = int_of_string (Bytes.to_string input) in
        let stamp i = Printf.sprintf "pg-%05d" i in
        let bad = ref 0 in
        for i = 0 to pages - 1 do
          env.Backend.heap_write ~off:(i * 4096) (Bytes.of_string (stamp i))
        done;
        for i = 0 to pages - 1 do
          if
            Bytes.to_string (env.Backend.heap_read ~off:(i * 4096) ~len:8)
            <> stamp i
          then incr bad
        done;
        Bytes.of_string (string_of_int !bad) );
    ( 3,
      fun (env : Backend.env) input ->
        env.Backend.interrupt ();
        env.Backend.ocall ~id:9 ~data:input () );
  ]

let ocalls =
  [
    ( 9,
      fun data ->
        let n = Bytes.length data in
        Bytes.init n (fun i -> Bytes.get data (n - 1 - i)) );
  ]

let payload seed =
  let n = 24 + (seed * 7 mod 200) in
  Bytes.init n (fun i -> Char.chr (97 + ((seed + i) mod 26)))

let rev s =
  let n = Bytes.length s in
  Bytes.to_string (Bytes.init n (fun i -> Bytes.get s (n - 1 - i)))

(* The calls one schedule issues, with the reply each must produce if it
   ends in Success. *)
let call_list seed =
  let data = payload seed in
  let pages = if seed mod 6 = 0 then 400 else 96 in
  [
    (1, data, String.uppercase_ascii (Bytes.to_string data));
    (2, Bytes.of_string (string_of_int pages), "0");
    (3, data, rev data);
  ]

(* A 512-frame EPC so page walks and injected EPC pressure actually
   evict (same sizing as the monitor overcommit tests). *)
let small_platform seed =
  Platform.create
    ~seed:(Int64.of_int (0xC0DE0000 + seed))
    ~phys_mb:134 ~os_mb:128 ~monitor_mb:4 ()

let arm_observer m inv_failures =
  Fault.on_inject (fun ~site _kind ->
      Hashtbl.replace sites_fired site ();
      match Invariants.check m with
      | [] -> ()
      | findings ->
          inv_failures := (site, Invariants.summary findings) :: !inv_failures)

let assert_clean ~what m inv_failures =
  (match !inv_failures with
  | [] -> ()
  | (site, summary) :: _ ->
      failwith
        (Printf.sprintf "invariants broken at injection (%s, %s): %s" what site
           summary));
  match Invariants.check m with
  | [] -> ()
  | findings ->
      failwith
        (Printf.sprintf "invariants broken after %s: %s" what
           (Invariants.summary findings))

(* ------------------------------------------------------------------ *)
(* Group 1: faults injected while real workloads run (per mode)        *)

(* Only sites crossed on the ECALL path — build-time sites get their own
   group below, so no spec here is dead weight. *)
let run_sites =
  [
    "epc.alloc";
    "epc.swap_in";
    "switch.aex";
    "switch.eresume";
    "sdk.ms_copy_in";
    "sdk.ms_copy_out";
    "sdk.aex_storm";
  ]

let run_schedule ~mode ~seed =
  let plan = Fault.plan_of_seed ~sites:run_sites ~faults:4 (Int64.of_int seed) in
  let plan_str = Fault.plan_to_string plan in
  let group = "run:" ^ Sgx_types.mode_name mode in
  incr schedules;
  (* The schedule body, parameterized over the ECALL list so a failure
     can be replayed on sub-lists by the trace minimizer.  Replays skip
     the aggregate counters — only the primary run is accounting. *)
  let exec ~accounting calls =
    let p = small_platform seed in
    let m = p.Platform.monitor in
    let backend =
      Backend.create p
        { (Backend.config (Backend.Hyperenclave mode)) with Backend.handlers; ocalls }
    in
    let inv_failures = ref [] in
    Fault.install ~telemetry:tel plan;
    arm_observer m inv_failures;
    List.iter
      (fun (id, data, expect) ->
        match
          Backend.protected_call backend ~id ~data ~direction:Edge.In_out ()
        with
        | Backend.Success reply as o ->
            if accounting then record o;
            if Bytes.to_string reply <> expect then
              failwith
                (Printf.sprintf "silent corruption on ECALL %d: got %S, wanted %S"
                   id
                   (Bytes.to_string reply) expect)
        | o -> if accounting then record o)
      calls;
    Fault.clear ();
    assert_clean ~what:"schedule" m inv_failures;
    backend.Backend.destroy ();
    assert_clean ~what:"destroy" m inv_failures
  in
  match exec ~accounting:true (call_list seed) with
  | () -> Fault.clear ()
  | exception exn ->
      Fault.clear ();
      (* Shrink the failing schedule to a 1-minimal ECALL list (same
         seed, same fault plan) and print it as a replayable trace next
         to the seed, via the model checker's shared trace machinery. *)
      let still_fails calls =
        match exec ~accounting:false calls with
        | () ->
            Fault.clear ();
            false
        | exception _ ->
            Fault.clear ();
            true
      in
      let minimal = Mc_trace.minimize ~replay:still_fails (call_list seed) in
      let steps =
        List.map
          (fun (id, data, _) ->
            Mc_trace.step
              ~detail:(Printf.sprintf "%d-byte payload" (Bytes.length data))
              (Printf.sprintf "ecall[%d]" id))
          minimal
      in
      Alcotest.failf "[%s] seed=%d plan=%s: %s@.minimized call trace (%d steps):@.%s"
        group seed plan_str (Printexc.to_string exn) (List.length minimal)
        (Mc_trace.to_string steps)

(* ------------------------------------------------------------------ *)
(* Group 2: faults injected during platform boot and enclave build     *)

let build_sites = [ "hypercall.dispatch"; "os.ioctl"; "epc.alloc"; "tpm.seal" ]

let build_schedule ~mode ~seed =
  let plan =
    Fault.plan_of_seed ~sites:build_sites ~faults:3 ~max_nth:8
      (Int64.of_int (500 + seed))
  in
  let plan_str = Fault.plan_to_string plan in
  let group = "build:" ^ Sgx_types.mode_name mode in
  with_context ~group ~seed ~plan:plan_str (fun () ->
      Fault.install ~telemetry:tel plan;
      (* No invariant observer here: sites fire mid-launch, before the
         monitor is a checkable whole.  The post-build sweep below is the
         oracle instead. *)
      Fault.on_inject (fun ~site _kind -> Hashtbl.replace sites_fired site ());
      let outcome =
        classify (fun () ->
            let p = small_platform (1000 + seed) in
            let backend =
              Backend.create p
                {
                  (Backend.config (Backend.Hyperenclave mode)) with
                  Backend.handlers;
                  ocalls;
                }
            in
            let reply =
              backend.Backend.call ~id:1 ~data:(Bytes.of_string "boot")
                ~direction:Edge.In_out ()
            in
            Fault.clear ();
            assert_clean ~what:"build" p.Platform.monitor (ref []);
            backend.Backend.destroy ();
            reply)
      in
      record outcome;
      match outcome with
      | Backend.Success reply ->
          if Bytes.to_string reply <> "BOOT" then
            failwith
              (Printf.sprintf "silent corruption after faulted build: %S"
                 (Bytes.to_string reply))
      | Backend.Typed_error _ | Backend.Violation _ -> ())

(* ------------------------------------------------------------------ *)
(* Group 3: the SGX baseline backend under armed plans                 *)

(* The Intel model crosses none of HyperEnclave's trust boundaries, so
   an armed plan must never fire there — instrumentation must not leak
   into the comparison baseline. *)
let sgx_schedule ~seed =
  let plan = Fault.plan_of_seed ~faults:4 (Int64.of_int (2000 + seed)) in
  let plan_str = Fault.plan_to_string plan in
  with_context ~group:"sgx" ~seed ~plan:plan_str (fun () ->
      let backend =
        Backend.sgx ~clock:(Cycles.create ()) ~cost:Cost_model.default
          ~rng:(Rng.create ~seed:(Int64.of_int (3000 + seed)))
          ~handlers ~ocalls ()
      in
      Fault.install ~telemetry:tel plan;
      List.iter
        (fun (id, data, expect) ->
          match
            Backend.protected_call backend ~id ~data ~direction:Edge.In_out ()
          with
          | Backend.Success reply as o ->
              record o;
              if Bytes.to_string reply <> expect then
                failwith (Printf.sprintf "SGX backend corrupted ECALL %d" id)
          | o ->
              record o;
              failwith
                (Printf.sprintf "plan fired on the SGX baseline: %s"
                   (Backend.outcome_name o)))
        (call_list seed);
      if Fault.injected_count () <> 0 then
        failwith "fault plane armed itself inside the SGX model";
      Fault.clear ();
      backend.Backend.destroy ())

(* ------------------------------------------------------------------ *)
(* Group 4: remote attestation under TPM faults                        *)

(* The monitor takes its one TPM quote at launch, so the plan is armed
   before the platform boots and the boot is classified like any other
   call: a transient fault is absorbed by launch's retry, a permanent
   one fails [Platform.create] typed, and a booted platform's quotes
   (no TPM command each) must verify. *)
let attest_fired = ref 0
let attest_booted = ref 0
let attest_refused = ref 0

let attest_schedule ~seed =
  let plan =
    Fault.plan_of_seed ~sites:[ "tpm.quote" ] ~faults:2 ~max_nth:2
      (Int64.of_int (4000 + seed))
  in
  let plan_str = Fault.plan_to_string plan in
  with_context ~group:"attest" ~seed ~plan:plan_str (fun () ->
      Fault.install ~telemetry:tel plan;
      Fault.on_inject (fun ~site _kind -> Hashtbl.replace sites_fired site ());
      let booted = ref None in
      let boot =
        classify (fun () ->
            booted := Some (small_platform (5000 + seed));
            Bytes.empty)
      in
      record boot;
      attest_fired := !attest_fired + Fault.injected_count ();
      match !booted with
      | None -> (
          match boot with
          | Backend.Violation msg -> failwith ("boot refused: " ^ msg)
          | Backend.Success _ | Backend.Typed_error _ -> incr attest_refused)
      | Some p ->
          incr attest_booted;
          let m = p.Platform.monitor in
          let inv_failures = ref [] in
          arm_observer m inv_failures;
          let handle =
            Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc
              ~rng:p.Platform.rng ~signer:p.Platform.signer
              ~config:(Urts.default_config Sgx_types.GU)
              ~ecalls:[ (1, fun _tenv input -> input) ]
              ~ocalls:[]
          in
          let golden =
            Verifier.golden_of_boot_log
              ~ek_public:(Tpm.ek_public p.Platform.tpm)
              (Monitor.boot_log m)
          in
          let policy =
            {
              Verifier.expected_mrenclave = Some (Urts.mrenclave handle);
              expected_mrsigner = None;
              allow_debug = false;
            }
          in
          for i = 1 to 2 do
            let report_data =
              Bytes.of_string (Printf.sprintf "challenge-%d-%d" seed i)
            in
            record
              (classify (fun () ->
                  let quote = Urts.gen_quote handle ~report_data in
                  (* Round-trip through the wire format, then the full
                     chain: a booted platform's quote must verify. *)
                  match Quote_wire.decode (Quote_wire.encode quote) with
                  | Result.Error e -> failwith ("quote wire roundtrip: " ^ e)
                  | Result.Ok decoded -> (
                      match Verifier.verify ~golden ~policy ~report_data decoded with
                      | Verifier.Ok _ -> Bytes.of_string "ok"
                      | Verifier.Error f ->
                          failwith
                            (Format.asprintf "quote refused: %a"
                               Verifier.pp_failure f))))
          done;
          Fault.clear ();
          assert_clean ~what:"attestation" m inv_failures;
          Urts.destroy handle)

(* ------------------------------------------------------------------ *)
(* Alcotest cases                                                      *)

let seeds_per_mode = 60
let build_seeds = 8
let sgx_seeds = 16
let attest_seeds = 24

let test_run_chaos mode () =
  for seed = 0 to seeds_per_mode - 1 do
    run_schedule ~mode ~seed
  done

let test_build_chaos () =
  List.iter
    (fun mode ->
      for seed = 0 to build_seeds - 1 do
        build_schedule ~mode ~seed
      done)
    Sgx_types.all_modes

let test_sgx_chaos () =
  for seed = 0 to sgx_seeds - 1 do
    sgx_schedule ~seed
  done

let test_attest_chaos () =
  for seed = 0 to attest_seeds - 1 do
    attest_schedule ~seed
  done;
  Alcotest.(check bool)
    (Printf.sprintf
       "tpm.quote faults fired at boot (%d), boots absorbed them (%d) and \
        failed typed (%d)"
       !attest_fired !attest_booted !attest_refused)
    true
    (!attest_fired > 0 && !attest_booted > 0 && !attest_refused > 0)

let test_aggregate () =
  (* The acceptance floor: enough schedules, real injections, all three
     outcome classes possible, broad site coverage, retries observed. *)
  let injected = Telemetry.counter tel "fault.injected" in
  let survived = Telemetry.counter tel "fault.survived" in
  let retried = Telemetry.counter tel "fault.retried" in
  let fired = Hashtbl.length sites_fired in
  Alcotest.(check bool)
    (Printf.sprintf "at least 200 schedules (%d)" !schedules)
    true (!schedules >= 200);
  Alcotest.(check bool)
    (Printf.sprintf "faults actually injected (%d)" injected)
    true (injected >= 100);
  Alcotest.(check bool)
    (Printf.sprintf "transient faults absorbed (survived=%d retried=%d)"
       survived retried)
    true
    (survived >= 20 && retried >= 10);
  Alcotest.(check bool)
    (Printf.sprintf "clean successes under fault load (%d)" !successes)
    true (!successes >= 100);
  Alcotest.(check bool)
    (Printf.sprintf "typed errors observed (%d)" !typed_errors)
    true (!typed_errors >= 20);
  Alcotest.(check bool)
    (Printf.sprintf "site coverage (%d sites fired: %s)" fired
       (String.concat ", "
          (List.sort compare
             (Hashtbl.fold (fun s () acc -> s :: acc) sites_fired []))))
    true (fired >= 8);
  (* Per-site telemetry agrees with the aggregate counter. *)
  Alcotest.(check int)
    "per-site counters sum to the total" injected
    (Telemetry.sum_prefix tel "fault.injected.")

let suite =
  [
    Alcotest.test_case "run chaos (GU)" `Slow (test_run_chaos Sgx_types.GU);
    Alcotest.test_case "run chaos (HU)" `Slow (test_run_chaos Sgx_types.HU);
    Alcotest.test_case "run chaos (P)" `Slow (test_run_chaos Sgx_types.P);
    Alcotest.test_case "build chaos" `Slow test_build_chaos;
    Alcotest.test_case "SGX baseline inert" `Quick test_sgx_chaos;
    Alcotest.test_case "attestation chaos" `Slow test_attest_chaos;
    Alcotest.test_case "aggregate coverage" `Quick test_aggregate;
  ]
