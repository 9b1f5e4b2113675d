(* The SMP enclave scheduler (lib/sched) and the switchless batched call
   ring: determinism, core scaling, work-stealing invariance, preemption
   with invariant checks, and the ring's single-switch amortization. *)

open Hyperenclave

let telemetry p = Monitor.telemetry p.Platform.monitor

(* An enclave whose single ECALL burns a fixed compute budget and echoes
   its input — the unit of schedulable work.  [code_seed] varies per
   enclave so each has its own identity (and MRENCLAVE). *)
let make_enclave p ~seed_name ~burn =
  Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
    ~signer:p.Platform.signer
    ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed = seed_name }
    ~ecalls:
      [
        ( 1,
          fun (tenv : Tenv.t) input ->
            tenv.Tenv.compute burn;
            input );
      ]
    ~ocalls:[]

let requests ~tag n =
  List.init n (fun i -> (1, Bytes.of_string (Printf.sprintf "%s-%d" tag i)))

(* --- batched call ring ----------------------------------------------------- *)

let test_batch_semantics () =
  let p = Platform.create ~seed:4100L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:
        [
          ( 1,
            fun (_ : Tenv.t) input ->
              Bytes.of_string (String.uppercase_ascii (Bytes.to_string input)) );
          (2, fun (_ : Tenv.t) input -> Bytes.cat input input);
        ]
      ~ocalls:[]
  in
  let replies =
    Urts.ecall_batch handle
      ~reqs:
        [
          (1, Bytes.of_string "aa");
          (2, Bytes.of_string "xy");
          (1, Bytes.of_string "bb");
        ]
      ()
  in
  Alcotest.(check (list string))
    "replies in request order" [ "AA"; "xyxy"; "BB" ]
    (List.map Bytes.to_string replies);
  Alcotest.(check int)
    "one world switch for the whole batch" 3
    (Telemetry.counter (telemetry p) "sdk.ecall_batched");
  Alcotest.(check (list string))
    "empty batch" []
    (List.map Bytes.to_string (Urts.ecall_batch handle ~reqs:[] ()));
  (* Oversized batches and unknown ids are typed refusals. *)
  let too_many = List.init (Urts.max_batch + 1) (fun _ -> (1, Bytes.empty)) in
  (try
     ignore (Urts.ecall_batch handle ~reqs:too_many ());
     Alcotest.fail "oversized batch accepted"
   with Urts.Enclave_error _ -> ());
  (try
     ignore (Urts.ecall_batch handle ~reqs:[ (99, Bytes.empty) ] ());
     Alcotest.fail "unknown id accepted"
   with Urts.Enclave_error _ -> ());
  Urts.destroy handle

let test_batch_amortizes_transition () =
  let p = Platform.create ~seed:4101L () in
  let handle = make_enclave p ~seed_name:"batch-amortize" ~burn:0 in
  let reqs = requests ~tag:"r" 8 in
  let clock = p.Platform.clock in
  let (_ : bytes list), batched =
    Cycles.time clock (fun () -> Urts.ecall_batch handle ~reqs ())
  in
  let (_ : unit), unbatched =
    Cycles.time clock (fun () ->
        List.iter
          (fun (id, data) ->
            ignore (Urts.ecall handle ~id ~data ~direction:Edge.In_out ()))
          reqs)
  in
  (* Acceptance bar: at K = 8 the amortized transition cost of a batched
     call beats unbatched by at least 2x. *)
  Alcotest.(check bool)
    (Printf.sprintf "batched 8 (% d cycles) at least 2x cheaper than unbatched (%d)"
       batched unbatched)
    true
    (2 * batched <= unbatched);
  Urts.destroy handle

(* --- scheduler ------------------------------------------------------------- *)

type run_result = {
  stats : Sched.stats;
  sched_counters : (string * int) list;
  per_core_cycles : int list;
}

(* Build a fresh platform with [enclaves] jobs of [reqs_per_job] requests
   each and run them through the scheduler.  Everything is derived from
   [seed] and the config, so two identical calls must be bit-identical. *)
let run_workload ?(seed = 4200L) ?(enclaves = 4) ?(reqs_per_job = 10)
    ?(burn = 15_000) ?on_preempt ?(submit_core = None) config =
  let p = Platform.create ~seed () in
  let handles =
    List.init enclaves (fun i ->
        make_enclave p ~seed_name:(Printf.sprintf "sched-enclave-%d" i) ~burn)
  in
  let sched =
    Sched.create ?on_preempt ~shared_clock:p.Platform.clock
      ~telemetry:(telemetry p) config
  in
  List.iteri
    (fun i handle ->
      Sched.submit sched ?core:submit_core ~urts:handle
        (requests ~tag:(Printf.sprintf "job%d" i) reqs_per_job))
    handles;
  let stats = Sched.run sched in
  let result =
    {
      stats;
      sched_counters = Telemetry.counters_with_prefix (telemetry p) "sched.";
      per_core_cycles =
        Array.to_list
          (Array.map (fun (c : Sched.core_stats) -> c.Sched.cycles) stats.Sched.per_core);
    }
  in
  List.iter Urts.destroy handles;
  result

let small_quantum =
  { Sched.default_config with Sched.cores = 2; quantum = 40_000; batch = 1 }

let test_determinism () =
  let a = run_workload small_quantum in
  let b = run_workload small_quantum in
  Alcotest.(check (list (pair string int)))
    "telemetry bit-identical" a.sched_counters b.sched_counters;
  Alcotest.(check (list int))
    "per-core cycle totals bit-identical" a.per_core_cycles b.per_core_cycles;
  Alcotest.(check int) "makespan identical" a.stats.Sched.makespan b.stats.Sched.makespan;
  Alcotest.(check int) "steals identical" a.stats.Sched.steals b.stats.Sched.steals;
  Alcotest.(check int)
    "all requests served" (4 * 10) a.stats.Sched.total_requests;
  (* The small quantum actually preempted something. *)
  Alcotest.(check bool)
    "preemptions occurred" true
    (a.stats.Sched.preempts + a.stats.Sched.aex_preempts > 0)

let test_core_scaling () =
  let run cores =
    run_workload { small_quantum with Sched.cores; quantum = 400_000 }
  in
  let one = run 1 and two = run 2 and four = run 4 in
  Alcotest.(check int) "1-core serves all" 40 one.stats.Sched.total_requests;
  Alcotest.(check int) "4-core serves all" 40 four.stats.Sched.total_requests;
  let speedup = float_of_int one.stats.Sched.makespan /. float_of_int two.stats.Sched.makespan in
  Alcotest.(check bool)
    (Printf.sprintf "2 cores at least 1.6x faster (got %.2fx)" speedup)
    true (speedup >= 1.6);
  Alcotest.(check bool)
    "4 cores no slower than 2" true
    (four.stats.Sched.makespan <= two.stats.Sched.makespan)

let test_work_stealing_invariance () =
  (* All jobs land on core 0; a huge quantum removes preemption from the
     picture, so the only scheduling freedom left is stealing.  Work
     performed (sum of busy cycles) must not depend on it. *)
  let base =
    { Sched.default_config with Sched.cores = 2; quantum = 100_000_000 }
  in
  let stealing =
    run_workload ~submit_core:(Some 0) { base with Sched.work_stealing = true }
  in
  let serial =
    run_workload ~submit_core:(Some 0) { base with Sched.work_stealing = false }
  in
  let busy_sum r =
    Array.fold_left
      (fun acc (c : Sched.core_stats) -> acc + c.Sched.busy)
      0 r.stats.Sched.per_core
  in
  Alcotest.(check bool) "stealing happened" true (stealing.stats.Sched.steals > 0);
  Alcotest.(check int)
    "both serve every request" serial.stats.Sched.total_requests
    stealing.stats.Sched.total_requests;
  Alcotest.(check int)
    "cross-core busy totals invariant under stealing" (busy_sum serial)
    (busy_sum stealing);
  Alcotest.(check bool)
    "stealing spread work to core 1" true
    (stealing.stats.Sched.per_core.(1).Sched.busy > 0);
  (* Without stealing, core 1 never ran anything. *)
  Alcotest.(check int)
    "serial run kept core 1 idle" 0 serial.stats.Sched.per_core.(1).Sched.busy

let test_batched_scheduler_run () =
  let unbatched = run_workload { small_quantum with Sched.quantum = 400_000 } in
  let batched =
    run_workload { small_quantum with Sched.quantum = 400_000; batch = 8 }
  in
  Alcotest.(check int)
    "batched serves every request" unbatched.stats.Sched.total_requests
    batched.stats.Sched.total_requests;
  Alcotest.(check bool)
    "batching reduces makespan" true
    (batched.stats.Sched.makespan < unbatched.stats.Sched.makespan)

(* A drained job must not outlive its run: [stats] keeps only counts, so
   the job's [on_result] closure (and everything it captures) becomes
   garbage once [run] returns. *)
let test_finished_jobs_released () =
  let p = Platform.create ~seed:4300L () in
  let handle = make_enclave p ~seed_name:"sched-release" ~burn:0 in
  let sched =
    Sched.create ~shared_clock:p.Platform.clock ~telemetry:(telemetry p)
      Sched.default_config
  in
  let served = ref 0 in
  let closures = Weak.create 1 in
  (* Built out of line so no local of this frame keeps the closure
     reachable; it captures [served], so it is a heap block. *)
  let submit () =
    let on_result ~index:_ _ = incr served in
    Weak.set closures 0 (Some on_result);
    Sched.submit sched ~on_result ~urts:handle (requests ~tag:"w" 3)
  in
  (Sys.opaque_identity submit) ();
  ignore (Sched.run sched : Sched.stats);
  Gc.full_major ();
  Alcotest.(check int) "every request delivered" 3 !served;
  Alcotest.(check int)
    "stats still count the job" 3 (Sched.stats sched).Sched.total_requests;
  Alcotest.(check bool) "on_result collected" false (Weak.check closures 0);
  Urts.destroy handle

(* --- 2-enclave / 2-core chaos with invariant checks ----------------------- *)

let test_chaos_preemption_invariants () =
  let seeds = List.init 12 (fun i -> Int64.of_int (5000 + (37 * i))) in
  List.iter
    (fun seed ->
      let p = Platform.create ~seed () in
      let plan = Fault.plan_of_seed ~faults:2 seed in
      let checked = ref 0 in
      let on_preempt ~core_id:_ =
        let findings = Invariants.check p.Platform.monitor in
        if findings <> [] then
          Alcotest.fail
            (Printf.sprintf
               "seed %Ld (plan %s): invariant violation at preemption: %s" seed
               (Fault.plan_to_string plan)
               (Invariants.summary findings));
        incr checked
      in
      let handles =
        List.init 2 (fun i ->
            make_enclave p
              ~seed_name:(Printf.sprintf "chaos-sched-%d" i)
              ~burn:30_000)
      in
      let sched =
        Sched.create ~on_preempt ~shared_clock:p.Platform.clock
          ~telemetry:(telemetry p)
          {
            Sched.default_config with
            Sched.cores = 2;
            quantum = 25_000;
            drop_on_error = true;
          }
      in
      List.iteri
        (fun i handle ->
          Sched.submit sched ~urts:handle
            (requests ~tag:(Printf.sprintf "chaos%d" i) 6))
        handles;
      Fault.install ~telemetry:(telemetry p) plan;
      let stats =
        try Sched.run sched
        with exn ->
          Fault.clear ();
          Alcotest.fail
            (Printf.sprintf "seed %Ld (plan %s): scheduler aborted: %s" seed
               (Fault.plan_to_string plan) (Printexc.to_string exn))
      in
      Fault.clear ();
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: every request accounted for" seed)
        true
        (stats.Sched.total_requests + stats.Sched.failed_requests = 12);
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: invariants checked at preemptions" seed)
        true
        (!checked > 0 || stats.Sched.preempts + stats.Sched.aex_preempts = 0);
      let findings = Invariants.check p.Platform.monitor in
      if findings <> [] then
        Alcotest.fail
          (Printf.sprintf "seed %Ld: post-run invariant violation: %s" seed
             (Invariants.summary findings));
      List.iter Urts.destroy handles)
    seeds

let suite =
  [
    Alcotest.test_case "batch ring semantics" `Quick test_batch_semantics;
    Alcotest.test_case "batch amortizes the world switch" `Quick
      test_batch_amortizes_transition;
    Alcotest.test_case "determinism: same seed, same totals" `Quick
      test_determinism;
    Alcotest.test_case "requests/sec scales with cores" `Quick test_core_scaling;
    Alcotest.test_case "work stealing leaves totals invariant" `Quick
      test_work_stealing_invariance;
    Alcotest.test_case "batched scheduler beats unbatched" `Quick
      test_batched_scheduler_run;
    Alcotest.test_case "finished jobs are released" `Quick
      test_finished_jobs_released;
    Alcotest.test_case "2-enclave/2-core chaos with invariant checks" `Quick
      test_chaos_preemption_invariants;
  ]
