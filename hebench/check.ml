(* The benchmark's own tests (`dune build @hebench_check`).

   Ledger identity: for every plane round, submit Δ + flush Δ on the
   platform clock equals the serial plane part plus the summed per-core
   busy Δ, the serial part is non-negative, and the critical path lies
   between the serial part and the platform Δ plus the cores' off-slice
   advance (steal penalties, which only core clocks carry).

   Determinism: each workload runs at a small size twice on one seed;
   the simulated metrics, minor words per request and the reply digest
   must repeat exactly, and a different seed must change the input
   digest. *)

let fails = ref 0

let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then incr fails;
      Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") msg)
    fmt

let small = function "echo_fanin" -> 12 | "kv_ycsb" -> 24 | _ -> 8

let run workload seed =
  Bench.run ~min_passes:1 ~workload ~seed ~seconds:0. ~trace:false ~rounds:(small workload)
    ~pass_rounds:(small workload) ()

(* Every simulated quantity the run reports. *)
let simulated (r : Bench.t) =
  let a = r.Bench.reference and l = r.Bench.reference.Meter.led in
  let p s q = Meter.Samples.percentile s q in
  [
    a.Meter.crit; a.Meter.served; a.Meter.failed; a.Meter.attempted;
    p a.Meter.lat 0.5; p a.Meter.lat 0.99; p a.Meter.connect 0.5; p a.Meter.connect 0.99;
    p a.Meter.migrate 0.5; p a.Meter.migrate 0.99; l.Meter.l_submit; l.Meter.l_flush;
    l.Meter.l_busy; l.Meter.l_slowest; r.Bench.ref_delta.Bench.makespan;
  ]

let () =
  let rounds = ref 0 and broken = ref 0 in
  (Meter.on_round :=
     fun (r : Meter.round) ->
       incr rounds;
       let platform = r.Meter.submit_cyc + r.Meter.flush_cyc in
       if
         platform <> r.Meter.serial_cyc + r.Meter.busy_cyc
         || r.Meter.serial_cyc < 0
         || r.Meter.crit_cyc < r.Meter.serial_cyc
         || r.Meter.crit_cyc > platform + r.Meter.off_slice_cyc
       then begin
         incr broken;
         Printf.printf
           "  ledger: submit %d + flush %d vs serial %d + busy %d, critical path %d, \
            off-slice %d\n"
           r.Meter.submit_cyc r.Meter.flush_cyc r.Meter.serial_cyc r.Meter.busy_cyc
           r.Meter.crit_cyc r.Meter.off_slice_cyc
       end);
  List.iter
    (fun w ->
      (* The first run in a process also fills process-wide tables, which
         allocates; the pair compared follows it. *)
      let _warm = run w 11 in
      let a = run w 11 in
      let b = run w 11 in
      let c = run w 12 in
      let ra = a.Bench.reference and rb = b.Bench.reference in
      expect (simulated a = simulated b) "%s: simulated metrics repeat on one seed" w;
      expect
        (Bench.minor_words_per_req a = Bench.minor_words_per_req b)
        "%s: minor words per request repeat (%.1f, %.1f)" w (Bench.minor_words_per_req a)
        (Bench.minor_words_per_req b);
      expect
        (ra.Meter.out_digest = rb.Meter.out_digest && ra.Meter.in_digest = rb.Meter.in_digest)
        "%s: input and reply digests repeat" w;
      expect
        (ra.Meter.in_digest <> c.Bench.reference.Meter.in_digest)
        "%s: another seed changes the input digest" w;
      expect (Bench.failed a = 0 && Bench.failed c = 0) "%s: no failed operation" w;
      let rps = Meter.attested_rps ra in
      let sched = Bench.makespan_rps a.Bench.ref_delta in
      Printf.printf "     %s: attested_rps %.0f (critical path), sched.makespan_rps %.0f \
                     (scheduler only)\n"
        w rps sched;
      if w = "echo_fanin" then
        expect (rps < sched) "%s: critical-path rate below the scheduler-only rate" w)
    Wl.names;
  expect (!rounds > 0 && !broken = 0) "ledger identity holds on all %d plane rounds" !rounds;
  exit (if !fails = 0 then 0 else 1)
