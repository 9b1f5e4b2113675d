(* Benchmark entry point.

     main.exe --workload <echo_fanin|kv_ycsb|session_churn> --seed N
              --seconds S --trace 0|1

   Prints a human-readable report, then, as its last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With
   [--trace 0] the metrics are the end-to-end metrics listed in
   BENCHMARK.json; with [--trace 1] they are the per-layer metrics, and
   a Chrome trace-event file of the traced rounds is written to
   .hebench_out/<workload>-<seed>.trace.json. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload <echo_fanin|kv_ycsb|session_churn> --seed N \
     --seconds S --trace 0|1";
  exit 2

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
}

let parse () =
  let a =
    { workload = ""; seed = 1; seconds = 10.; trace = false }
  in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest ->
        a.workload <- v;
        go rest
    | "--seed" :: v :: rest ->
        a.seed <- int_arg v;
        go rest
    | "--seconds" :: v :: rest ->
        a.seconds <- float_of_int (int_arg v);
        go rest
    | "--trace" :: v :: rest ->
        a.trace <- int_arg v <> 0;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem a.workload Wl.names) then usage ();
  a

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics))

let row (name, v, unit) = Printf.printf "  %-36s %18.4f %s\n" name v unit

(* --- end-to-end report ------------------------------------------------------ *)

let end_to_end (r : Bench.t) =
  let a = r.Bench.reference in
  let churn = r.Bench.workload = "session_churn" in
  let lat p = Bench.pct a.Meter.lat p in
  (* The metrics of BENCHMARK.json; the rest are printed only (see
     README.md for why). *)
  let reported =
    [
      ("attested_rps", Meter.attested_rps a, "1/s");
      ("latency_p50_cyc", lat 0.50, "cyc");
      ("latency_p99_cyc", lat 0.99, "cyc");
      ("minor_words_per_req", Bench.minor_words_per_req r, "words");
      ("heap_top_mb", r.Bench.heap_top_mb, "MB");
      ("setup_s", r.Bench.setup_s, "s");
    ]
  in
  Printf.printf
    "%s: reference pass of %d rounds, then %d passes of %d; %d set-ups; \
     reference pass: %d served, %d latency samples\n"
    r.Bench.workload a.Meter.rounds (r.Bench.passes - 1) r.Bench.pass_rounds
    (List.length r.Bench.setups)
    a.Meter.served
    (Meter.Samples.count a.Meter.lat);
  List.iter row reported;
  row ("host_us_per_req", Bench.host_us_per_req r, "us");
  if churn then begin
    Printf.printf "  (%d connect and %d migration samples)\n"
      (Meter.Samples.count a.Meter.connect)
      (Meter.Samples.count a.Meter.migrate);
    List.iter row
      [
        ("connect_p50_cyc", Bench.pct a.Meter.connect 0.50, "cyc");
        ("connect_p99_cyc", Bench.pct a.Meter.connect 0.99, "cyc");
        ("migrate_pause_p50_cyc", Bench.pct a.Meter.migrate 0.50, "cyc");
        ("migrate_pause_p99_cyc", Bench.pct a.Meter.migrate 0.99, "cyc");
      ]
  end
  else
    Printf.printf
      "  connect_p50_cyc, connect_p99_cyc, migrate_pause_p50_cyc, \
       migrate_pause_p99_cyc: session_churn only\n";
  row ("failed_ratio", Bench.failed_ratio r, "ratio");
  row
    ( "sched.makespan_rps (scheduler-only)",
      Bench.makespan_rps r.Bench.ref_delta,
      "1/s" );
  Hashtbl.iter
    (fun reason n -> Printf.printf "  failure %s: %d\n" reason n)
    a.Meter.rejects;
  reported

(* --- per-layer report --------------------------------------------------------- *)

let per_layer (r : Bench.t) =
  let b = r.Bench.traced and d = r.Bench.traced_delta in
  let l = b.Meter.led in
  let per x n = x /. float_of_int (max 1 n) in
  let span name = Span.total name in
  let self_us name = let t = span name in per t.Span.self_us t.Span.count in
  let self_words name = let t = span name in per t.Span.self_words t.Span.count in
  let cyc name = let t = span name in per (float_of_int t.Span.cycles) t.Span.count in
  let delta = Bench.counter d in
  let flush = span "serve.flush" in
  let median f = Meter.median_float (List.map f r.Bench.setups) in
  let untraced = Meter.median_float (Meter.per_request r.Bench.rest.Meter.host) in
  let traced = Meter.median_float (Meter.per_request b.Meter.host) in
  let switches =
    delta "switch.eenter" + delta "switch.eexit" + delta "switch.aex" + delta "switch.eresume"
  in
  let listed =
    [
      ("client.seal_us", self_us "client.seal", "us");
      ("client.seal_words", self_words "client.seal", "words");
      ("client.unseal_us", self_us "client.unseal", "us");
      ("client.unseal_words", self_words "client.unseal", "words");
      ("serve.submit_us", self_us "serve.submit", "us");
      ("serve.submit_words", self_words "serve.submit", "words");
      ("serve.submit_cyc", cyc "serve.submit", "cyc");
      ( "serve.rejects",
        float_of_int (Hashtbl.fold (fun _ n acc -> acc + n) b.Meter.rejects 0),
        "count" );
      ("serve.flush_us_per_req", per flush.Span.self_us l.Meter.l_requests, "us");
      ("serve.flush_words_per_req", per flush.Span.self_words l.Meter.l_requests, "words");
      ( "serve.flush_serial_cyc_per_req",
        per (float_of_int (l.Meter.l_flush - l.Meter.l_busy)) l.Meter.l_requests,
        "cyc" );
      ("sched.busy_cyc_per_req", per (float_of_int l.Meter.l_busy) l.Meter.l_requests, "cyc");
      ( "sched.slowest_core_cyc_per_round",
        per (float_of_int l.Meter.l_slowest) l.Meter.l_rounds,
        "cyc" );
      ( "sched.imbalance",
        float_of_int l.Meter.l_slowest /. Float.max 1. l.Meter.l_mean_adv,
        "ratio" );
      ("sched.steals", float_of_int d.Bench.steals, "count");
      ("sched.preempts", float_of_int d.Bench.preempts, "count");
      ("sched.aex_preempts", float_of_int d.Bench.aex, "count");
      ("sched.failed", float_of_int d.Bench.sched_failed, "count");
      ("sched.makespan_rps", Bench.makespan_rps d, "1/s");
      ( "sdk.ring_occupancy",
        per (float_of_int (delta "sdk.ring_slots")) (delta "sdk.ring_dispatch"),
        "slots" );
      ("monitor.world_switches_per_req", per (float_of_int switches) b.Meter.served, "count");
      ("monitor.epc_commits", float_of_int (delta "epc.commit"), "count");
      ("monitor.epc_evictions", float_of_int (delta "epc.evict"), "count");
      ("monitor.epc_swap_ins", float_of_int (delta "epc.swap_in"), "count");
      ("monitor.tlb_flushes", float_of_int (delta "tlb.invlpg"), "count");
      ("setup.platform_s", median (fun t -> t.Wl.platform_s), "s");
      ("setup.tenants_s", median (fun t -> t.Wl.tenants_s), "s");
      ("setup.handshake_s", median (fun t -> t.Wl.handshake_s), "s");
      ("trace.host_us_per_req", traced, "us");
      ("trace.overhead_us_per_req", traced -. untraced, "us");
    ]
  in
  Printf.printf
    "%s: %d traced rounds (%d served, %d plane rounds) alternating with %d untraced\n"
    r.Bench.workload b.Meter.rounds b.Meter.served l.Meter.l_rounds
    r.Bench.rest.Meter.rounds;
  List.iter row listed;
  Hashtbl.iter (fun reason n -> Printf.printf "  serve.rejects.%s: %d\n" reason n) b.Meter.rejects;
  (* Not in BENCHMARK.json: every metric listed there must be reported
     by every workload, and these are not. *)
  row ("setup.load_s", median (fun t -> t.Wl.load_s), "s");
  if r.Bench.workload = "session_churn" then begin
    let ops =
      List.fold_left
        (fun acc name -> acc + (span name).Span.count)
        0
        [ "cluster.connect"; "cluster.call"; "cluster.close"; "cluster.migrate" ]
    in
    let migrations = (span "cluster.migrate").Span.count in
    List.iter row
      [
        ("cluster.connect_us", self_us "cluster.connect", "us");
        ("cluster.connect_words", self_words "cluster.connect", "words");
        ("cluster.call_cyc", cyc "cluster.call", "cyc");
        ("cluster.migrate_us", self_us "cluster.migrate", "us");
        ("cluster.migrate_words", self_words "cluster.migrate", "words");
        ("cluster.chases", float_of_int d.Bench.chases, "count");
        ("netsim.msgs_per_op", per (float_of_int d.Bench.sent) ops, "count");
        ( "netsim.bytes_per_migration",
          per (float_of_int d.Bench.migrate_bytes) migrations,
          "bytes" );
        ("netsim.wire_cyc", per (float_of_int d.Bench.wire_cyc) ops, "cyc");
        ("netsim.dropped", float_of_int d.Bench.dropped, "count");
      ]
  end
  else Printf.printf "  cluster.* and netsim.*: session_churn only\n";
  Printf.printf "  span self time (traced rounds):\n";
  List.iter
    (fun name ->
      let t = span name in
      if t.Span.count > 0 then
        Printf.printf "    %-16s %8d spans %12.2f us self %10.1f words self %12d cyc\n" name
          t.Span.count t.Span.self_us t.Span.self_words t.Span.cycles)
    [
      "round"; "client.seal"; "serve.submit"; "serve.flush"; "client.unseal";
      "cluster.connect"; "cluster.call"; "cluster.close"; "cluster.migrate";
    ];
  listed

let () =
  let a = parse () in
  let r =
    Bench.run ~workload:a.workload ~seed:a.seed ~seconds:a.seconds ~trace:a.trace
      ~rounds:(Wl.reference_rounds a.workload)
      ~pass_rounds:(Wl.pass_rounds a.workload) ()
  in
  let metrics =
    if a.trace then begin
      let listed = per_layer r in
      (try Sys.mkdir ".hebench_out" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf ".hebench_out/%s-%d.trace.json" a.workload a.seed in
      Span.write_chrome path;
      Printf.printf "  chrome trace (%d spans of whole rounds): %s\n" !Span.kept_n path;
      listed
    end
    else end_to_end r
  in
  json
    ~correct:(Bench.failed r = 0)
    ~attempted:(Bench.attempted r) ~failed:(Bench.failed r) metrics
