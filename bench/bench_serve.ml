(* PR 5 tentpole bench: attested end-to-end serving throughput of the
   multi-tenant plane (lib/serve) — SIGMA handshake bound to the
   attestation chain, AEAD request channels, batched dispatch through
   the SMP scheduler — over 1/2/4/8 simulated cores.

   The headline numbers are rows of the perf gate (Perf_gate.table,
   BENCH.json): attested req/s per core count on the critical-path basis
   (served over the plane ledger's critical path, Serve.ledger), a 1 -> 2
   core speedup of at least 1.5x, and the 8-core scheduler-only rate as
   one labelled row.  All are simulated-cycle quantities, so the gate is
   deterministic.  The one-time handshake cost (quote generation + verification + key
   agreement) is reported alongside so the amortization argument —
   attest once, serve thousands — stays visible. *)

open Hyperenclave

let tenants = 4
let rounds = 3
let reqs_per_client_round = 16
let value_bytes = 96

let handlers =
  [
    (1, fun _env input -> input);
    (2, fun (env : Backend.env) input ->
        (* A small stand-in for request work: charge compute
           proportional to the payload and echo it back transformed. *)
        env.Backend.compute (50 * Bytes.length input);
        Bytes.of_string (String.uppercase_ascii (Bytes.to_string input)));
  ]

let golden_of (p : Platform.t) =
  Verifier.golden_of_boot_log
    ~ek_public:(Tpm.ek_public p.Platform.tpm)
    (Monitor.boot_log p.Platform.monitor)

let payload seed i =
  Bytes.init value_bytes (fun j -> Char.chr (97 + ((seed + i + j) mod 26)))

type run = {
  cores : int;
  rps : float;  (** critical-path basis *)
  sched_rps : float;  (** scheduler-only basis *)
  served : int;
  ledger : Serve.ledger;
  handshake_cycles : int;
}

let measure ~cores =
  let p = Platform.create ~seed:951L () in
  let plane =
    Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p
      {
        Serve.default_config with
        Serve.sched =
          {
            Sched.default_config with
            Sched.cores;
            batch = 16;
            drop_on_error = true;
          };
        max_queue = 256;
      }
  in
  let golden = golden_of p in
  let clients =
    List.init tenants (fun i ->
        let name = Printf.sprintf "tenant-%d" i in
        let backend =
          Serve.add_tenant plane ~name
            {
              (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
              Backend.handlers;
              code_seed = Some name;
            }
        in
        let identity = Option.get backend.Backend.identity in
        let client =
          Serve.Client.create
            ~rng:(Rng.create ~seed:(Int64.of_int (3000 + i)))
            ~golden
            ~policy:
              {
                Verifier.expected_mrenclave = Some identity;
                expected_mrsigner = None;
                allow_debug = false;
              }
            ~expected_tenant:identity ()
        in
        (name, backend, client))
  in
  (* Handshakes: attest each tenant once, timing the first end to end
     (quote generation, wire encode/decode, verification, key
     agreement) on the shared platform clock. *)
  let handshake_cycles = ref 0 in
  List.iteri
    (fun i (name, _, client) ->
      let before = Cycles.now p.Platform.clock in
      (match Serve.handshake plane ~tenant:name (Serve.Client.hello client) with
      | Ok accept -> (
          match Serve.Client.establish client accept with
          | Ok () -> ()
          | Error r ->
              Format.eprintf "bench_serve: establish failed: %a@." Serve.pp_reject r;
              exit 2)
      | Error r ->
          Format.eprintf "bench_serve: handshake failed: %a@." Serve.pp_reject r;
          exit 2);
      if i = 0 then handshake_cycles := Cycles.now p.Platform.clock - before)
    clients;
  (* Serving: every client stages a sealed batch, one flush serves all
     tenants concurrently across the scheduler's cores. *)
  let served = ref 0 in
  for round = 0 to rounds - 1 do
    List.iteri
      (fun ci (_, _, client) ->
        for i = 0 to reqs_per_client_round - 1 do
          let req =
            Serve.Client.request client
              ~ecall:(1 + ((round + i) mod 2))
              (payload ((ci * 131) + round) i)
          in
          match Serve.submit plane req with
          | Ok () -> ()
          | Error r ->
              Format.eprintf "bench_serve: submit rejected: %a@." Serve.pp_reject r;
              exit 2
        done)
      clients;
    let replies = Serve.flush plane in
    List.iter
      (function
        | { Serve.r_result = Ok _; _ } -> incr served
        | { Serve.r_result = Error r; _ } ->
            Format.eprintf "bench_serve: request failed: %a@." Serve.pp_reject r;
            exit 2)
      replies
  done;
  let ledger = Serve.ledger plane in
  let sched_rps = Util.sched_only_rps (Serve.sched_stats plane) in
  (* The plane owns the tenant backends now: one destroy tears down
     everything, including the quoting enclave. *)
  Serve.destroy plane;
  {
    cores;
    rps = Util.critical_rps ledger;
    sched_rps;
    served = !served;
    ledger;
    handshake_cycles = !handshake_cycles;
  }

type summary = { runs : run list; speedup_2core : float }

let rps runs cores = (List.find (fun r -> r.cores = cores) runs).rps

let summarize () =
  let runs = List.map (fun cores -> measure ~cores) [ 1; 2; 4; 8 ] in
  { runs; speedup_2core = rps runs 2 /. rps runs 1 }

let run () =
  Util.set_experiment "serve";
  Util.banner "Serve"
    "Attested serving plane: end-to-end req/s (handshake-keyed AEAD \
     channels, batched ECALL dispatch) vs simulated cores, 4 tenants.  \
     Attested req/s = served / critical path (serial plane cycles + the \
     slowest core, per flush); sched-only = served / slowest core clock.";
  let s = summarize () in
  Util.print_table
    ~columns:
      [
        "cores";
        "served";
        "serial (Mcyc)";
        "critical path (Mcyc)";
        "attested req/s";
        "sched-only req/s";
        "handshake (cyc)";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.cores;
           string_of_int r.served;
           Printf.sprintf "%.3f" (float_of_int r.ledger.Serve.serial_cycles /. 1e6);
           Printf.sprintf "%.3f"
             (float_of_int r.ledger.Serve.critical_cycles /. 1e6);
           Printf.sprintf "%.0f" r.rps;
           Printf.sprintf "%.0f" r.sched_rps;
           string_of_int r.handshake_cycles;
         ])
       s.runs);
  Printf.printf "\n  1 -> 2 core speedup: %.2fx (gate: >= 1.5x)\n" s.speedup_2core;
  let h = (List.hd s.runs).handshake_cycles in
  let per_req =
    let r = List.find (fun r -> r.cores = 2) s.runs in
    r.ledger.Serve.critical_cycles / max 1 r.served
  in
  Printf.printf
    "  handshake amortization: one attestation costs ~%d served requests.\n"
    (h / max 1 per_req)

(* --- smoke + gate headline -------------------------------------------- *)

(* Fast 1-core sanity pass (`dune build @serve_smoke`): one tenant, one
   attested session, a handful of requests — fails loudly if the
   attested path breaks. *)
let smoke () =
  let r = measure ~cores:1 in
  if r.served <> tenants * rounds * reqs_per_client_round then begin
    Printf.eprintf "serve_smoke: FAIL — served %d of %d requests\n" r.served
      (tenants * rounds * reqs_per_client_round);
    exit 1
  end;
  Printf.printf
    "serve_smoke: OK — %d attested requests served at %.0f req/s (1 core, \
     critical path), handshake %d cycles\n"
    r.served r.rps r.handshake_cycles

let headline (s : summary) =
  List.map
    (fun r -> (Printf.sprintf "attested_rps_%dcore" r.cores, r.rps))
    s.runs
  @ [
      ("sched_only_rps_8core", (List.find (fun r -> r.cores = 8) s.runs).sched_rps);
      ("serve_speedup_2core", s.speedup_2core);
      ("handshake_cycles", float_of_int (List.hd s.runs).handshake_cycles);
    ]
