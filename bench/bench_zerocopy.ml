(* The zero-copy attested request path bench.  Its 8-core serving rate
   is Bench_serve's; the headline numbers here are rows of the perf gate
   (Perf_gate.table, BENCH.json), deterministic simulated-cycle
   quantities: the cycles of resuming a session from a sealed ticket,
   and their ratio to the full SIGMA handshake it replaces.  In the
   model a handshake pays no TPM command (the platform quote is taken at
   launch) and no priced Kx or ems signature, while the ticket unseal is
   priced, so the ratio sits above 1; both rows are two-sided bands. *)

open Hyperenclave

(* Full SIGMA handshake vs ticket resumption on the same plane, the
   two ways a reconnecting client gets a session: a resume skips the
   quote (EREPORT and ems) and its verification. *)
let resume_vs_handshake () =
  let p, plane = Util.plane ~seed:962L Serve.default_config in
  let tenant = "resume-tenant" in
  let pin = Util.tenant plane ~name:tenant [ (1, fun _env input -> input) ] in
  let what = "bench_zerocopy" in
  let client, handshake_cycles =
    Util.attest ~what p plane ~tenant ~seed:4242L ~pin ()
  in
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> Util.fail what "issue_ticket" r
  in
  let before = Cycles.now p.Platform.clock in
  let resume = Serve.Client.resume_hello client ~ticket in
  (match Serve.resume plane resume with
  | Ok session_id -> Serve.Client.complete_resume client ~session_id
  | Error r -> Util.fail what "resume" r);
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
    "  resumption: %d cycles vs %d handshake (%.3fx).\n"
    s.resume_cycles s.handshake_cycles (resume_ratio s)

let headline s =
  [
    ("resume_cycles", float_of_int s.resume_cycles);
    ("resume_ratio", resume_ratio s);
  ]
