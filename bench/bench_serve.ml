(* PR 5 tentpole bench: attested end-to-end serving throughput of the
   multi-tenant plane (lib/serve) — SIGMA handshake bound to the
   attestation chain, AEAD request channels, batched dispatch through
   the SMP scheduler — over 1/2/4/8 simulated cores.

   The headline numbers are rows of the perf gate (Perf_gate.table,
   BENCH.json): attested req/s per core count on the critical-path basis
   (served over the plane ledger's critical path, Serve.ledger) and a
   1 -> 2 core speedup of at least 1.5x.  All are simulated-cycle
   quantities, so the gate is deterministic.  The one-time handshake
   cost (quote generation + verification + key agreement) is reported
   alongside so the amortization argument — attest once, serve
   thousands — stays visible. *)

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

let payload seed i =
  Bytes.init value_bytes (fun j -> Char.chr (97 + ((seed + i + j) mod 26)))

(* Every client's requests for one round, client by client: request [i]
   of client [ci] alternates the two handlers. *)
let round_requests clients ~round ~per_client =
  List.concat
    (List.mapi
       (fun ci client ->
         List.init per_client (fun i ->
             Serve.Client.request client
               ~ecall:(1 + ((round + i) mod 2))
               (payload ((ci * 131) + round) i)))
       clients)

type run = { cores : int; ledger : Serve.ledger; handshake_cycles : int }

let measure ~cores =
  let p, plane = Util.plane ~seed:951L (Util.serve_config ~cores) in
  let pins =
    List.init tenants (fun i ->
        let name = Printf.sprintf "tenant-%d" i in
        (name, Util.tenant plane ~name handlers))
  in
  (* Handshakes: attest each tenant once; the first one's cycles
     (quote generation, wire encode/decode, verification, key agreement)
     are the reported handshake cost. *)
  let clients, handshakes =
    List.split
      (List.mapi
         (fun i (tenant, pin) ->
           Util.attest ~what:"bench_serve" p plane ~tenant
             ~seed:(Int64.of_int (3000 + i)) ~pin ())
         pins)
  in
  (* Serving: every client stages a sealed batch, one flush serves all
     tenants concurrently across the scheduler's cores. *)
  for round = 0 to rounds - 1 do
    ignore
      (Util.round ~what:"bench_serve" plane
         (round_requests clients ~round ~per_client:reqs_per_client_round))
  done;
  let ledger = Serve.ledger plane in
  (* The plane owns the tenant backends now: one destroy tears down
     everything, including the quoting enclave. *)
  Serve.destroy plane;
  { cores; ledger; handshake_cycles = List.hd handshakes }

type summary = { runs : run list; speedup_2core : float }

let rps runs cores =
  Util.critical_rps (List.find (fun r -> r.cores = cores) runs).ledger

let summarize () =
  let runs = List.map (fun cores -> measure ~cores) [ 1; 2; 4; 8 ] in
  { runs; speedup_2core = rps runs 2 /. rps runs 1 }

let run () =
  Util.set_experiment "serve";
  Util.banner "Serve"
    "Attested serving plane: end-to-end req/s (handshake-keyed AEAD \
     channels, batched ECALL dispatch) vs simulated cores, 4 tenants.  \
     Attested req/s = served / critical path (serial plane cycles + the \
     slowest core, per flush).";
  let s = summarize () in
  Util.print_table
    ~columns:(("cores" :: Util.ledger_columns) @ [ "handshake (cyc)" ])
    (List.map
       (fun r ->
         (string_of_int r.cores :: Util.ledger_cells r.ledger)
         @ [ string_of_int r.handshake_cycles ])
       s.runs);
  Printf.printf "\n  1 -> 2 core speedup: %.2fx (gate: >= 1.5x)\n" s.speedup_2core;
  let h = (List.hd s.runs).handshake_cycles in
  let per_req =
    let r = List.find (fun r -> r.cores = 2) s.runs in
    r.ledger.Serve.critical_cycles / max 1 r.ledger.Serve.served
  in
  Printf.printf
    "  handshake amortization: one attestation costs ~%d served requests.\n"
    (h / max 1 per_req)

(* --- smoke + gate headline -------------------------------------------- *)

(* Fast 1-core sanity pass (`dune build @serve_smoke`): fails loudly if
   the attested path breaks. *)
let smoke () =
  let r = measure ~cores:1 in
  let served = r.ledger.Serve.served in
  if served <> tenants * rounds * reqs_per_client_round then begin
    Printf.eprintf "serve_smoke: FAIL — served %d of %d requests\n" served
      (tenants * rounds * reqs_per_client_round);
    exit 1
  end;
  Printf.printf
    "serve_smoke: OK — %d attested requests served at %.0f req/s (1 core, \
     critical path), handshake %d cycles\n"
    served (Util.critical_rps r.ledger) r.handshake_cycles

let headline (s : summary) =
  List.map
    (fun r ->
      (Printf.sprintf "attested_rps_%dcore" r.cores, Util.critical_rps r.ledger))
    s.runs
  @ [
      ("serve_speedup_2core", s.speedup_2core);
      ("handshake_cycles", float_of_int (List.hd s.runs).handshake_cycles);
    ]
