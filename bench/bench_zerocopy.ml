(* The zero-copy attested request path bench.  Its 8-core serving rate
   is Bench_serve's; the headline numbers here are rows of the perf gate
   (Perf_gate.table, BENCH.json), deterministic quantities: the cycles
   of resuming a session from a sealed ticket, their ratio to the full
   SIGMA handshake it replaces, and the host allocation of a full
   handshake.  In the model a handshake pays no TPM command (the
   platform quote is taken at launch) and no priced Kx or ems
   signature, while the ticket unseal is priced, so the ratio sits
   above 1; every row is a two-sided band. *)

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
  | Ok resumed -> Serve.Client.complete_resume client resumed
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

let handshakes = 16

(* Minor words of one full handshake, both ends and the session's
   close: clients of one tenant attest one after another against one
   golden, as the clients of a platform share its relying party's.  An
   untimed first handshake appraises the platform and warms the quoting
   path, so the measured ones are a steady state. *)
let handshake_minor_words () =
  let p, plane = Util.plane ~seed:963L Serve.default_config in
  let tenant = "handshake-tenant" in
  let pin = Util.tenant plane ~name:tenant [ (1, fun _env input -> input) ] in
  let golden = Util.golden_of p in
  let what = "bench_zerocopy" in
  let handshake i =
    let client =
      Util.client ~golden ~seed:(Int64.of_int (5000 + i)) ~pin ()
    in
    Util.establish ~what plane ~tenant client;
    match Serve.close_session plane ~session:(Serve.Client.session_id client) with
    | Ok () -> ()
    | Error r -> Util.fail what "close_session" r
  in
  handshake 0;
  let words0 = Gc.minor_words () in
  for i = 1 to handshakes do
    handshake i
  done;
  let words1 = Gc.minor_words () in
  Serve.destroy plane;
  (words1 -. words0) /. float_of_int handshakes

type summary = {
  handshake_cycles : int;
  resume_cycles : int;
  handshake_words : float;
}

let summarize () =
  let handshake_cycles, resume_cycles = resume_vs_handshake () in
  { handshake_cycles; resume_cycles; handshake_words = handshake_minor_words () }

let resume_ratio s =
  float_of_int s.resume_cycles /. float_of_int s.handshake_cycles

let run () =
  Util.set_experiment "zerocopy";
  Util.banner "Zero-copy"
    "Zero-copy attested path: ticket resumption vs the full handshake.";
  let s = summarize () in
  Printf.printf
    "  resumption: %d cycles vs %d handshake (%.3fx).\n\
    \  a handshake allocates %.0f minor words (both ends).\n"
    s.resume_cycles s.handshake_cycles (resume_ratio s) s.handshake_words

let headline s =
  [
    ("resume_cycles", float_of_int s.resume_cycles);
    ("resume_ratio", resume_ratio s);
    ("handshake_minor_words", s.handshake_words);
  ]
