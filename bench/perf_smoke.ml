(* The perf gate, next to the test suite: `dune build @perf_smoke`.

     perf_smoke.exe BENCH.json          measure every row, check, exit 0/1/2
     perf_smoke.exe --write BENCH.json  re-baseline every simulated row
     perf_smoke.exe --serve-smoke       fast attested-path sanity run

   Each bench module contributes its headline numbers; Perf_gate owns
   the table, the file, the comparison and the exit code.  This is a
   separate alias rather than part of @runtest on purpose: the host
   wall-clock row is machine-sensitive, and the tier-1 suite must stay
   deterministic. *)

(* One untimed warm-up pass so allocator/page-cache effects don't count
   against the budget, then the measured pass. *)
let smoke_wall_seconds () =
  Smoke.run ();
  let wall0 = Unix.gettimeofday () in
  Smoke.run ();
  Unix.gettimeofday () -. wall0

let measure () =
  let wall = smoke_wall_seconds () in
  let serve = Bench_serve.summarize () in
  Bench_throughput.headline (Bench_throughput.ring_ratio_k8 ())
  @ Bench_serve.headline serve
  @ Bench_zerocopy.headline (Bench_zerocopy.summarize ())
  @ Bench_arena.headline
      (Bench_arena.summarize ~rps_8core:(Bench_serve.rps serve.runs 8))
  @ Bench_workloads.headline (Bench_workloads.summarize ())
  @ Bench_cluster.headline (Bench_cluster.summarize ())
  @ [ ("perf_smoke_wall_seconds", wall) ]

let () =
  match Array.to_list Sys.argv with
  | [ _; "--serve-smoke" ] ->
      Bench_serve.smoke ();
      Bench_workloads.smoke ();
      Bench_cluster.smoke ()
  | [ _; "--write"; path ] -> Perf_gate.write ~path (measure ())
  | [ _; path ] -> exit (Perf_gate.check ~path (measure ()))
  | _ ->
      prerr_endline
        "usage: perf_smoke.exe BENCH.json | --write BENCH.json | --serve-smoke";
      exit 2
