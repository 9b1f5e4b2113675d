(* The zero-copy attested request path bench.  Its 8-core serving rate
   is Bench_serve's; the headline numbers here are rows of the perf gate
   (Perf_gate.table, BENCH.json), deterministic simulated-cycle
   quantities: resuming a session from a sealed ticket must cost at most
   1/10th of the full SIGMA handshake it replaces. *)

open Hyperenclave

(* Full SIGMA handshake vs ticket resumption on the same plane: the
   quantity a reconnecting client saves by skipping quote generation
   and verification. *)
let resume_vs_handshake () =
  let p = Platform.create ~seed:962L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let backend =
    Serve.add_tenant plane ~name:"resume-tenant"
      {
        (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
        Backend.handlers = [ (1, fun _env input -> input) ];
        code_seed = Some "resume-tenant";
      }
  in
  let identity = Option.get backend.Backend.identity in
  let golden =
    Verifier.golden_of_boot_log
      ~ek_public:(Tpm.ek_public p.Platform.tpm)
      (Monitor.boot_log p.Platform.monitor)
  in
  let client =
    Serve.Client.create
      ~rng:(Rng.create ~seed:4242L)
      ~golden
      ~policy:
        {
          Verifier.expected_mrenclave = Some identity;
          expected_mrsigner = None;
          allow_debug = false;
        }
      ~expected_tenant:identity ()
  in
  let fail : 'a. string -> Serve.reject -> 'a =
   fun what r ->
    Format.eprintf "bench_zerocopy: %s failed: %a@." what Serve.pp_reject r;
    exit 2
  in
  let before = Cycles.now p.Platform.clock in
  (match Serve.handshake plane ~tenant:"resume-tenant" (Serve.Client.hello client) with
  | Ok accept -> (
      match Serve.Client.establish client accept with
      | Ok () -> ()
      | Error r -> fail "establish" r)
  | Error r -> fail "handshake" r);
  let handshake_cycles = Cycles.now p.Platform.clock - before in
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> fail "issue_ticket" r
  in
  let before = Cycles.now p.Platform.clock in
  let resume = Serve.Client.resume_hello client ~ticket in
  (match Serve.resume plane resume with
  | Ok session_id -> Serve.Client.complete_resume client ~session_id
  | Error r -> fail "resume" r);
  let resume_cycles = Cycles.now p.Platform.clock - before in
  (* The resumed channel must actually serve: one sealed roundtrip. *)
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "ping") ] with
  | [ Ok body ] when Bytes.to_string body = "ping" -> ()
  | _ ->
      prerr_endline "bench_zerocopy: resumed session failed to serve";
      exit 2);
  Serve.destroy plane;
  (handshake_cycles, resume_cycles)

type summary = { handshake_cycles : int; resume_cycles : int }

let summarize () =
  let handshake_cycles, resume_cycles = resume_vs_handshake () in
  { handshake_cycles; resume_cycles }

let resume_ratio s =
  float_of_int s.resume_cycles /. float_of_int s.handshake_cycles

let run () =
  Util.set_experiment "zerocopy";
  Util.banner "Zero-copy"
    "Zero-copy attested path: ticket resumption vs the full handshake.";
  let s = summarize () in
  Printf.printf
    "  resumption: %d cycles vs %d handshake (%.3fx, gate: <= 0.1x).\n"
    s.resume_cycles s.handshake_cycles (resume_ratio s)

let headline s =
  [
    ("resume_cycles", float_of_int s.resume_cycles);
    ("resume_ratio", resume_ratio s);
  ]
