(* PR 7 tentpole bench: the allocation-free attested data path.

   Its headline numbers are rows of the perf gate (Perf_gate.table,
   BENCH.json):

   - steady-state GC pressure: minor words allocated per attested
     request across submit+flush, with requests pre-sealed so only the
     plane's own allocations count;
   - a single hot tenant (8 sessions, one enclave) must reach at least
     80% of the 8-core multi-tenant rate (Bench_serve's) and scale at
     least 1.6x from 1 to 2 cores — the per-tenant ring sharding claim:
     one tenant's traffic saturates all cores.  Both rates are on the
     critical-path basis (Serve.ledger). *)

open Hyperenclave

let what = "bench_arena"

(* --- steady-state allocation accounting -------------------------------- *)

let alloc_warmup_rounds = 2
let alloc_rounds = 8
let alloc_reqs_per_round = 32

(* Minor words allocated per request by the plane itself (admission +
   flush + reply assembly), measured over a steady state: every request
   frame is sealed up front, the arenas and rings are warmed by
   untimed rounds, then [Gc.minor_words] brackets the measured rounds.
   This plane keeps the default queue bound. *)
let minor_words_per_request () =
  let p, plane =
    Util.plane ~seed:971L
      {
        (Util.serve_config ~cores:2) with
        Serve.max_queue = Serve.default_config.Serve.max_queue;
      }
  in
  let name = "alloc-tenant" in
  let pin = Util.tenant plane ~name Bench_serve.handlers in
  let client, _ = Util.attest ~what p plane ~tenant:name ~seed:7001L ~pin () in
  let rounds =
    List.init (alloc_warmup_rounds + alloc_rounds) (fun r ->
        List.init alloc_reqs_per_round (fun i ->
            Serve.Client.request client
              ~ecall:(1 + ((r + i) mod 2))
              (Bench_serve.payload r i)))
  in
  let warmup = List.filteri (fun r _ -> r < alloc_warmup_rounds) rounds in
  let measured = List.filteri (fun r _ -> r >= alloc_warmup_rounds) rounds in
  let serve reqs = ignore (Util.round ~what plane reqs) in
  List.iter serve warmup;
  let words0 = Gc.minor_words () in
  List.iter serve measured;
  let words1 = Gc.minor_words () in
  Serve.destroy plane;
  (words1 -. words0) /. float_of_int (alloc_rounds * alloc_reqs_per_round)

(* --- hot-tenant sharding ------------------------------------------------ *)

let hot_sessions = 8
let hot_rounds = 3
let hot_reqs_per_session_round = 8

(* One tenant, one enclave, [hot_sessions] attested sessions hammering
   it: the plane-wide block rotor must spread the single tenant's
   staged blocks across every ring shard (and so every core).  Returns
   the plane's ledger. *)
let measure_hot ~cores =
  let p, plane = Util.plane ~seed:972L (Util.serve_config ~cores) in
  let tenant = "hot-tenant" in
  let pin = Util.tenant plane ~name:tenant Bench_serve.handlers in
  let first = Util.attest ~what p plane ~tenant ~seed:7001L ~pin () in
  let others =
    List.init (hot_sessions - 1) (fun i ->
        Util.attest ~what p plane ~tenant ~seed:(Int64.of_int (7100 + i)) ())
  in
  let clients = List.map fst (first :: others) in
  for round = 0 to hot_rounds - 1 do
    ignore
      (Util.round ~what plane
         (Bench_serve.round_requests clients ~round
            ~per_client:hot_reqs_per_session_round))
  done;
  let ledger = Serve.ledger plane in
  Serve.destroy plane;
  ledger

(* --- summary, gate headline ---------------------------------------------- *)

type summary = {
  words_per_req : float;
  rps_8core : float;  (* 4-tenant rate, from Bench_serve *)
  hot_runs : (int * Serve.ledger) list;  (* by core count *)
  hot_ratio : float;  (* hot single-tenant rate / multi-tenant rate *)
  hot_speedup_2core : float;
}

let hot_rps hot_runs cores = Util.critical_rps (List.assoc cores hot_runs)

let summarize ~rps_8core =
  let words_per_req = minor_words_per_request () in
  let hot_runs =
    List.map (fun cores -> (cores, measure_hot ~cores)) [ 1; 2; 4; 8 ]
  in
  {
    words_per_req;
    rps_8core;
    hot_runs;
    hot_ratio = hot_rps hot_runs 8 /. rps_8core;
    hot_speedup_2core = hot_rps hot_runs 2 /. hot_rps hot_runs 1;
  }

let run () =
  Util.set_experiment "arena";
  Util.banner "Arena"
    "Allocation-free attested data path: minor words per request, 8-core \
     throughput, and a single hot tenant sharded across every core.";
  let s =
    summarize
      ~rps_8core:(Util.critical_rps (Bench_serve.measure ~cores:8).ledger)
  in
  Printf.printf "  minor words per attested request (steady state): %.1f\n"
    s.words_per_req;
  Printf.printf "\n  hot tenant (1 enclave, %d sessions) vs cores:\n\n"
    hot_sessions;
  Util.print_table ~columns:("cores" :: Util.ledger_columns)
    (List.map
       (fun (cores, ledger) -> string_of_int cores :: Util.ledger_cells ledger)
       s.hot_runs);
  Printf.printf
    "\n  8-core: %.0f req/s multi-tenant, %.0f hot tenant (%.0f%%, gate: >= \
     80%%)\n"
    s.rps_8core (hot_rps s.hot_runs 8) (s.hot_ratio *. 100.0);
  Printf.printf "  hot tenant 1 -> 2 core speedup: %.2fx (gate: >= 1.6x)\n"
    s.hot_speedup_2core

let headline s =
  [
    ("minor_words_per_request", s.words_per_req);
    ("hot_tenant_ratio", s.hot_ratio);
    ("hot_speedup_2core", s.hot_speedup_2core);
  ]
