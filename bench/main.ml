(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 7 and Appendix A).  `main.exe` runs them all;
   `main.exe <id> [...]` runs a subset; `main.exe --bechamel` additionally
   runs wall-clock micro-benchmarks of the simulator.

   Expected-vs-measured commentary lives in EXPERIMENTS.md. *)

let experiments =
  [
    ("table1", ("edge-call latencies (ECALL/OCALL/EENTER/EEXIT)", Bench_table1.run));
    ("table2", ("in-enclave exception handling (#UD, #PF/GC)", Bench_table2.run));
    ("fig7", ("marshalling-buffer overhead", Bench_fig7.run));
    ("fig8a", ("NBench relative scores", Bench_fig8a.run));
    ("fig8b", ("SQLite YCSB-A throughput vs records", Bench_fig8b.run));
    ("fig8c", ("Lighttpd throughput vs page size", Bench_fig8c.run));
    ("fig8d", ("Redis latency-throughput", Bench_fig8d.run));
    ("table3", ("LMBench + kernel build virtualization overhead", Bench_table3.run));
    ("fig10", ("SPEC CPU 2017 virtualization overhead", Bench_fig10.run));
    ("fig11", ("memory-encryption latency scan", Bench_fig11.run));
    ("ablation", ("design-choice ablations (not in the paper)", Bench_ablation.run));
    ("throughput", ("switchless slot ring vs K ECALLs", Bench_throughput.run));
    ( "serve",
      ("attested serving plane end-to-end req/s (PR 5)", Bench_serve.run) );
    ( "zerocopy",
      ( "zero-copy path: ticket resumption (PR 6)",
        Bench_zerocopy.run ) );
    ( "arena",
      ( "allocation-free data path: arenas, in-slot envelopes, sharding (PR 7)",
        Bench_arena.run ) );
    ( "workloads",
      ( "LibOS services behind the attested plane: Fig. 8b-8d mixes (PR 9)",
        Bench_workloads.run ) );
    ( "cluster",
      ( "multi-monitor fleet: scaling, live migration, rolling upgrade (PR 10)",
        Bench_cluster.run ) );
    ("isa", ("Sec. 8 cross-platform cost projection", Bench_isa.run));
    ( "mc",
      ( "model-checker throughput: states/s + component breakdown (PR 8)",
        Bench_mc.run ) );
  ]

let usage () =
  print_endline "usage: main.exe [--bechamel] [--csv DIR] [experiment ...]";
  print_endline "experiments:";
  List.iter
    (fun (id, (description, _)) -> Printf.printf "  %-8s %s\n" id description)
    experiments

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let bechamel = List.mem "--bechamel" args in
  (* --csv DIR mirrors every printed table into DIR as CSV files. *)
  let rec extract_csv acc = function
    | "--csv" :: dir :: rest ->
        Util.set_csv_dir dir;
        extract_csv acc rest
    | arg :: rest -> extract_csv (arg :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_csv [] args in
  let selected =
    List.filter (fun a -> a <> "--bechamel" && a <> "--all") args
  in
  match List.find_opt (fun a -> not (List.mem_assoc a experiments)) selected with
  | Some unknown when unknown <> "--help" && unknown <> "-h" ->
      Printf.printf "unknown experiment: %s\n" unknown;
      usage ();
      exit 1
  | Some _ ->
      usage ();
      exit 0
  | None ->
      let to_run = if selected = [] then List.map fst experiments else selected in
      print_endline
        "HyperEnclave reproduction benchmark harness (simulated cycles; see \
         EXPERIMENTS.md for paper-vs-measured notes)";
      List.iter
        (fun id ->
          Util.set_experiment id;
          (snd (List.assoc id experiments)) ())
        to_run;
      if bechamel then Bechamel_suite.run ()
