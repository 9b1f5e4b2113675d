(* The attested serving plane: SIGMA-style handshake bound to the
   attestation chain, AEAD request channels, typed admission control,
   per-tenant quotas, EDMM-backed session state, and graceful
   degradation under injected faults. *)

open Hyperenclave

let upper input = Bytes.of_string (String.uppercase_ascii (Bytes.to_string input))

let echo_handlers =
  [
    (1, fun _env input -> input);
    (2, fun _env input -> upper input);
  ]

let golden_of (p : Platform.t) =
  Verifier.golden_of_boot_log
    ~ek_public:(Tpm.ek_public p.Platform.tpm)
    (Monitor.boot_log p.Platform.monitor)

let policy_pinning identity =
  { Verifier.expected_mrenclave = Some identity; expected_mrsigner = None; allow_debug = false }

let tenant_config ?(kind = Backend.Hyperenclave Sgx_types.GU)
    ?(handlers = echo_handlers) () =
  { (Backend.config kind) with Backend.handlers }

(* One plane with one enclave tenant, plus a client already holding the
   golden values and the tenant pin. *)
let build ?(seed = 7000L) ?(config = Serve.default_config)
    ?(kind = Backend.Hyperenclave Sgx_types.GU) ?handlers () =
  let p = Platform.create ~seed () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p config in
  let backend =
    Serve.add_tenant plane ~name:"acme" (tenant_config ~kind ?handlers ())
  in
  let identity = Option.get backend.Backend.identity in
  let client =
    Serve.Client.create
      ~rng:(Rng.create ~seed:(Int64.add seed 1L))
      ~golden:(golden_of p)
      ~policy:(policy_pinning identity)
      ~expected_tenant:identity ()
  in
  (p, plane, backend, client)

let establish plane client =
  match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello client) with
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  | Ok accept -> (
      match Serve.Client.establish client accept with
      | Error r -> Alcotest.failf "establish failed: %a" Serve.pp_reject r
      | Ok () -> ())

let expect_reject expected = function
  | Ok _ -> Alcotest.failf "expected %s rejection" expected
  | Error r -> Alcotest.(check string) "reject kind" expected (Serve.reject_name r)

(* [frame] with the low bit of byte [i] flipped. *)
let flip frame i =
  let f = Bytes.copy frame in
  Bytes.set f i (Char.chr (Char.code (Bytes.get f i) lxor 1));
  f

(* A channel frame's every lie: one flipped bit per byte, ciphertext and
   tag alike, then every strict prefix, those shorter than a tag too. *)
let frame_lies frame =
  let n = Bytes.length frame in
  List.init n (fun i -> (Printf.sprintf "byte %d flipped" i, flip frame i))
  @ List.init n (fun len -> (Printf.sprintf "cut to %d bytes" len, Bytes.sub frame 0 len))

let outcome = function Ok _ -> "accepted" | Error r -> Serve.reject_name r

(* A copy of a served reply's frame, read from its view. *)
let reply_frame (r : Serve.reply) = Bytes.sub r.Serve.r_image r.Serve.r_off r.Serve.r_len

(* A reply as its client reads it: the body, or the reject's label. *)
let read_as client reply =
  Result.map_error Serve.reject_name
    (Result.map Bytes.to_string (Serve.Client.read_reply client reply))

let admit plane (req : Serve.request) =
  match Serve.submit plane req with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r

(* An echo handler that counts its runs. *)
let counted_echo calls = [ (1, fun _env input -> incr calls; input) ]

(* ------------------------------------------------------------------ *)
(* Handshake + end-to-end serving                                      *)

let test_roundtrip_modes () =
  List.iter
    (fun mode ->
      let _p, plane, _backend, client =
        build ~kind:(Backend.Hyperenclave mode) ()
      in
      establish plane client;
      let data = Bytes.of_string "hello enclave" in
      (match Serve.Client.roundtrip plane client [ (1, data); (2, data) ] with
      | [ Ok r1; Ok r2 ] ->
          Alcotest.(check string) "echo" "hello enclave" (Bytes.to_string r1);
          Alcotest.(check string) "upper" "HELLO ENCLAVE" (Bytes.to_string r2)
      | results ->
          List.iter
            (function
              | Error r -> Alcotest.failf "roundtrip failed: %a" Serve.pp_reject r
              | Ok _ -> ())
            results;
          Alcotest.failf "expected 2 replies, got %d" (List.length results));
      Serve.destroy plane)
    Sgx_types.all_modes

let test_wrong_tenant_pin_rejected () =
  (* The quote and the transcript agree; only the client's pin differs. *)
  let p = Platform.create ~seed:7003L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let backend = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
  let client =
    Serve.Client.create ~rng:(Rng.create ~seed:1L) ~golden:(golden_of p)
      ~policy:(policy_pinning (Option.get backend.Backend.identity))
      ~expected_tenant:(Bytes.make 32 'z') ()
  in
  (match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello client) with
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  | Ok accept ->
      expect_reject "handshake-failed" (Serve.Client.establish client accept));
  Serve.destroy plane

let test_baseline_tenants_refused () =
  (* The plane hosts HyperEnclave enclaves only: a baseline kind is a
     caller error that registers nothing. *)
  let p = Platform.create ~seed:7004L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let client =
    Serve.Client.create ~rng:(Rng.create ~seed:2L) ~golden:(golden_of p)
      ~policy:{ Verifier.expected_mrenclave = None; expected_mrsigner = None; allow_debug = false }
      ()
  in
  List.iter
    (fun (name, kind) ->
      (match Serve.add_tenant plane ~name (tenant_config ~kind ()) with
      | _ -> Alcotest.failf "%s tenant accepted" name
      | exception Invalid_argument _ -> ());
      expect_reject "unknown-tenant"
        (Serve.handshake plane ~tenant:name (Serve.Client.hello client)))
    [ ("bare", Backend.Native); ("sgx", Backend.Sgx) ];
  Serve.destroy plane

let test_unknown_tenant () =
  let _p, plane, _backend, client = build ~seed:7005L () in
  expect_reject "unknown-tenant"
    (Serve.handshake plane ~tenant:"nobody" (Serve.Client.hello client));
  Serve.destroy plane

let test_replayed_nonce () =
  let _p, plane, _backend, client = build ~seed:7006L () in
  let hello = Serve.Client.hello client in
  (match Serve.handshake plane ~tenant:"acme" hello with
  | Error r -> Alcotest.failf "first handshake rejected: %a" Serve.pp_reject r
  | Ok _ -> ());
  expect_reject "replayed-nonce" (Serve.handshake plane ~tenant:"acme" hello);
  Serve.destroy plane

let test_spliced_accept_fails_binding () =
  (* A quote lifted from one exchange must not authenticate another:
     swap the server share after the fact and the transcript binding
     breaks. *)
  let _p, plane, _backend, client = build ~seed:7007L () in
  (match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello client) with
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  | Ok accept ->
      let _, other_share = Kx.generate (Rng.create ~seed:99L) in
      expect_reject "channel-binding"
        (Serve.Client.establish client { accept with Serve.server_kx = other_share }));
  Serve.destroy plane

let test_replayed_accept_fails_binding () =
  (* The host keeps an earlier accept, its quote and server share, and
     answers a fresh hello with it.  Every quote of one boot carries the
     same platform quote; the report answers the old transcript, so the
     new one refuses it. *)
  let _p, plane, _backend, client = build ~seed:7009L () in
  let earlier =
    match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello client) with
    | Ok accept -> accept
    | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  in
  ignore (Serve.Client.hello client : Serve.hello);
  expect_reject "channel-binding" (Serve.Client.establish client earlier);
  Serve.destroy plane

let test_garbage_quote_wire () =
  let _p, plane, _backend, client = build ~seed:7008L () in
  (match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello client) with
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  | Ok accept ->
      expect_reject "bad-wire"
        (Serve.Client.establish client
           { accept with Serve.quote_wire = Bytes.of_string "not a quote" }));
  Serve.destroy plane

(* The key-share refusals of the attested key exchange, on either end,
   which no other test reaches: a hello whose client share is no group
   element, and an accept whose server share is none, under a genuine
   quote of the transcript naming it (the host asks the tenant for that
   quote itself). *)
let test_key_share_refusals () =
  let _p, plane, backend, client = build ~seed:7070L () in
  let identity = Option.get backend.Backend.identity in
  let non_group = Bytes.make 32 '\000' in
  List.iter
    (fun (what, run) -> Alcotest.(check string) what "unknown-key-share" (run ()))
    [
      ( "handshake: non-group client share",
        fun () ->
          outcome
            (Serve.handshake plane ~tenant:"acme"
               { (Serve.Client.hello client) with Serve.client_kx = non_group })
      );
      ( "establish: quoted non-group server share",
        fun () ->
          let hello = Serve.Client.hello client in
          let report_data =
            Sigma.transcript ~label:"hyperenclave-serve-sigma:"
              [ hello.Serve.nonce; hello.Serve.client_kx; non_group; identity ]
          in
          let quote =
            Urts.gen_quote (Option.get backend.Backend.urts) ~report_data
          in
          outcome
            (Serve.Client.establish client
               {
                 Serve.session_id = 0;
                 node_id = 0;
                 server_kx = non_group;
                 quote_wire = Quote_wire.encode quote;
                 tenant_identity = identity;
               }) );
    ];
  Serve.destroy plane

(* A hello whose share is no group element is refused before the plane
   does any work for it: the platform clock does not move, and no share
   is drawn and no quote cut, so the next honest handshake gets the
   very accept a twin plane that never saw the garbage gives. *)
let test_garbage_hello_costs_nothing () =
  let accept_of plane client =
    match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello client) with
    | Ok a -> a
    | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  in
  let p, plane, _backend, client = build ~seed:7071L () in
  let _, twin, _, twin_client = build ~seed:7071L () in
  let liar =
    Serve.Client.create ~rng:(Rng.create ~seed:7171L) ~golden:(golden_of p)
      ~policy:(policy_pinning Bytes.empty) ()
  in
  let c0 = Cycles.now p.Platform.clock in
  expect_reject "unknown-key-share"
    (Serve.handshake plane ~tenant:"acme"
       {
         (Serve.Client.hello liar) with
         Serve.client_kx = Bytes.make 32 '\000';
       });
  Alcotest.(check int) "platform cycles for a refused hello" 0
    (Cycles.now p.Platform.clock - c0);
  let a = accept_of plane client and b = accept_of twin twin_client in
  Alcotest.(check bytes) "no share drawn" b.Serve.server_kx a.Serve.server_kx;
  Alcotest.(check bytes) "no quote cut" b.Serve.quote_wire a.Serve.quote_wire;
  Serve.destroy plane;
  Serve.destroy twin

(* ------------------------------------------------------------------ *)
(* Channel security + admission control                                *)

(* Every lie about a request frame, or its sequence number moved by one
   either way, is a typed bad-auth whose handler never runs and which
   burns no sequence number.  A frame shorter than a tag is refused at
   submit; every other lie is admitted, and the enclave refuses it in
   the flush that serves the honest request. *)
let test_tampered_envelope_rejected () =
  let calls = ref 0 in
  let _p, plane, _backend, client =
    build ~seed:7010L ~handlers:(counted_echo calls) ()
  in
  establish plane client;
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "warm") ] with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "warm-up roundtrip failed");
  let req = Serve.Client.request client ~ecall:1 (Bytes.of_string "payload") in
  let admitted =
    List.filter
      (fun (what, (lie : Serve.request)) ->
        let short = Bytes.length lie.Serve.frame < Urts.tag_bytes in
        Alcotest.(check string) (what ^ " at submit")
          (if short then "bad-auth" else "accepted")
          (outcome (Serve.submit plane lie));
        not short)
      (List.map (fun (what, frame) -> (what, { req with Serve.frame })) (frame_lies req.Serve.frame)
      @ [
          ("seq - 1", { req with Serve.seq = req.Serve.seq - 1 });
          ("seq + 1", { req with Serve.seq = req.Serve.seq + 1 });
        ])
  in
  admit plane req;
  let replies = Serve.flush plane in
  Alcotest.(check int) "a reply per admitted request" (List.length admitted + 1)
    (List.length replies);
  List.iteri
    (fun i (reply : Serve.reply) ->
      match List.nth_opt admitted i with
      | Some (what, lie) ->
          Alcotest.(check int) (what ^ ": reply seq") lie.Serve.seq reply.Serve.r_seq;
          Alcotest.(check (result string string)) what (Error "bad-auth")
            (read_as client reply)
      | None ->
          Alcotest.(check (result string string)) "honest request served"
            (Ok "payload") (read_as client reply))
    replies;
  Alcotest.(check int) "no lie ran its handler" 2 !calls;
  Serve.destroy plane

let test_respliced_header_rejected () =
  (* Redirecting a valid frame at another of the tenant's ECALL ids:
     admission takes it, but the derived AAD binds the id, so the enclave
     refuses it; the frame still serves under its own id in that flush. *)
  let _p, plane, _backend, client = build ~seed:7011L () in
  establish plane client;
  let req = Serve.Client.request client ~ecall:1 (Bytes.of_string "payload") in
  admit plane { req with Serve.ecall_id = 2 };
  admit plane req;
  (match List.map (read_as client) (Serve.flush plane) with
  | [ spliced; honest ] ->
      Alcotest.(check (result string string)) "respliced" (Error "bad-auth") spliced;
      Alcotest.(check (result string string)) "honest" (Ok "payload") honest
  | replies -> Alcotest.failf "expected 2 replies, got %d" (List.length replies));
  Serve.destroy plane

let test_replayed_request_rejected () =
  (* A served request replayed in a later flush is admitted and refused
     by the enclave's replay window, naming the window top; its handler
     runs once. *)
  let calls = ref 0 in
  let _p, plane, _backend, client =
    build ~seed:7012L ~handlers:(counted_echo calls) ()
  in
  establish plane client;
  let req = Serve.Client.request client ~ecall:1 (Bytes.of_string "once") in
  admit plane req;
  (match List.map (read_as client) (Serve.flush plane) with
  | [ first ] -> Alcotest.(check (result string string)) "served" (Ok "once") first
  | replies -> Alcotest.failf "expected 1 reply, got %d" (List.length replies));
  admit plane req;
  (match Serve.flush plane with
  | [ { Serve.r_result = Error (Serve.Bad_sequence { expected; got }); _ } ] ->
      Alcotest.(check (pair int int)) "window top, replayed number"
        (req.Serve.seq + 1, req.Serve.seq) (expected, got)
  | _ -> Alcotest.fail "expected one bad-sequence reply");
  Alcotest.(check int) "handler ran once" 1 !calls;
  Serve.destroy plane

(* The enclave's replay window, 1024 numbers wide here.  On two cores
   one session's 16 requests in one flush span two rotor blocks: after a
   one-request warm-up the rotor puts seq 9-16 on shard 0, which core 0
   runs before core 1 runs seq 1-8, and all 16 still serve.  A number
   sent twice in one flush is served once and refused once.  Of two
   requests the host withheld, the one at the window's bottom still
   serves and the one just below it is bad-sequence. *)
let test_replay_window () =
  let ran = ref [] in
  let handlers =
    [ (1, fun _env input -> ran := Bytes.to_string input :: !ran; input) ]
  in
  let config =
    {
      Serve.default_config with
      Serve.max_queue = 256;
      sched = { Sched.default_config with Sched.cores = 2; batch = 16 };
    }
  in
  let _p, plane, _backend, client = build ~seed:7067L ~config ~handlers () in
  establish plane client;
  let sealed payload = Serve.Client.request client ~ecall:1 (Bytes.of_string payload) in
  let send payload = admit plane (sealed payload) in
  let served what =
    List.iter
      (fun reply ->
        match read_as client reply with
        | Ok _ -> ()
        | Error r -> Alcotest.failf "%s: %s" what r)
      (Serve.flush plane)
  in
  send "warm";
  served "warm-up";
  ran := [];
  let burst = List.init 16 (fun i -> Printf.sprintf "r%d" (i + 1)) in
  List.iter send burst;
  Alcotest.(check (list (result string string))) "all 16 served"
    (List.map Result.ok burst)
    (List.map (read_as client) (Serve.flush plane));
  Alcotest.(check (list string)) "seq 9-16 ran before seq 1-8"
    (List.filteri (fun i _ -> i >= 8) burst @ List.filteri (fun i _ -> i < 8) burst)
    (List.rev !ran);
  let twice = sealed "twice" in
  admit plane twice;
  admit plane twice;
  Alcotest.(check (list (result string string))) "one copy served, one refused"
    [ Ok "twice"; Error "bad-sequence" ]
    (List.sort compare (List.map (read_as client) (Serve.flush plane)));
  let below = sealed "below" in
  let bottom = sealed "bottom" in
  for round = 1 to 4 do
    for _ = 1 to if round < 4 then 256 else 255 do
      send "fill"
    done;
    served "fill"
  done;
  admit plane below;
  admit plane bottom;
  (match Serve.flush plane with
  | [ b; t ] ->
      (match b.Serve.r_result with
      | Error (Serve.Bad_sequence { expected; got }) ->
          Alcotest.(check (pair int int)) "below: window top, its number"
            (below.Serve.seq + 1025, below.Serve.seq) (expected, got)
      | _ -> Alcotest.fail "the number below the window was not refused");
      Alcotest.(check (result string string)) "bottom" (Ok "bottom") (read_as client t)
  | replies -> Alcotest.failf "expected 2 replies, got %d" (List.length replies));
  Serve.destroy plane

let test_unknown_session () =
  let _p, plane, _backend, client = build ~seed:7013L () in
  establish plane client;
  let req = Serve.Client.request client ~ecall:1 Bytes.empty in
  expect_reject "unknown-session"
    (Serve.submit plane { req with Serve.session_id = 4242 });
  Serve.destroy plane

let test_backpressure () =
  let config = { Serve.default_config with Serve.max_queue = 2 } in
  let _p, plane, _backend, client = build ~seed:7014L ~config () in
  establish plane client;
  let submit () =
    Serve.submit plane (Serve.Client.request client ~ecall:1 (Bytes.of_string "x"))
  in
  (match (submit (), submit ()) with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "first two submits should be admitted");
  expect_reject "backpressure" (submit ());
  (* Flushing drains the queue; admission resumes. *)
  ignore (Serve.flush plane);
  (match submit () with
  | Ok () -> ()
  | Error r -> Alcotest.failf "post-flush submit rejected: %a" Serve.pp_reject r);
  ignore (Serve.flush plane);
  Serve.destroy plane

let test_quota_exhaustion_and_grant () =
  (* The arena's switchless ring dispatch charges only a few hundred
     cycles per single-request flush (post fence + slot dispatch + page
     walks) — a quota below that still admits the first request and is
     exhausted by it. *)
  let config = { Serve.default_config with Serve.cycle_quota = Some 300 } in
  let _p, plane, _backend, client = build ~seed:7015L ~config () in
  establish plane client;
  let roundtrip () =
    Serve.Client.roundtrip plane client [ (1, Bytes.of_string "spend") ]
  in
  (match roundtrip () with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "first roundtrip should succeed under a fresh quota");
  let spent, budget = Serve.quota_state plane ~tenant:"acme" in
  Alcotest.(check bool) "cycles were charged" true (spent > 0);
  Alcotest.(check int) "budget as configured" 300 budget;
  Alcotest.(check bool) "quota exhausted" true (spent >= budget);
  (match roundtrip () with
  | [ Error (Serve.Quota_exhausted { tenant; _ }) ] ->
      Alcotest.(check string) "tenant named" "acme" tenant
  | _ -> Alcotest.fail "expected quota rejection");
  (* A grant re-opens admission. *)
  Serve.grant plane ~tenant:"acme" 10_000_000;
  (match roundtrip () with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "roundtrip after grant should succeed");
  Serve.destroy plane

let test_tenant_isolation () =
  (* Two tenants, one plane: each session only decrypts with its own
     key, and per-tenant accounting stays separate. *)
  let p = Platform.create ~seed:7016L () in
  let plane =
    Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p
      { Serve.default_config with Serve.cycle_quota = Some 100_000_000 }
  in
  let b1 = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
  let b2 = Serve.add_tenant plane ~name:"globex" (tenant_config ()) in
  let mk backend seed =
    let identity = Option.get backend.Backend.identity in
    Serve.Client.create ~rng:(Rng.create ~seed) ~golden:(golden_of p)
      ~policy:(policy_pinning identity) ~expected_tenant:identity ()
  in
  let c1 = mk b1 3L and c2 = mk b2 4L in
  establish plane c1;
  (match Serve.handshake plane ~tenant:"globex" (Serve.Client.hello c2) with
  | Error r -> Alcotest.failf "globex handshake rejected: %a" Serve.pp_reject r
  | Ok accept -> (
      match Serve.Client.establish c2 accept with
      | Error r -> Alcotest.failf "globex establish failed: %a" Serve.pp_reject r
      | Ok () -> ()));
  (* A request sealed under c2's key aimed at c1's session must bounce
     in acme's enclave — and the very same frame must still serve on its
     own session, in the same flush. *)
  let stolen = Serve.Client.request c2 ~ecall:2 (Bytes.of_string "two") in
  admit plane { stolen with Serve.session_id = Serve.Client.session_id c1 };
  admit plane stolen;
  (* Both tenants serve side by side in one flush. *)
  admit plane (Serve.Client.request c1 ~ecall:2 (Bytes.of_string "one"));
  let replies = Serve.flush plane in
  (match replies with
  | [ lie; one; two ] ->
      Alcotest.(check (result string string)) "stolen frame" (Error "bad-auth")
        (read_as c1 lie);
      Alcotest.(check (result string string)) "c1" (Ok "ONE") (read_as c1 one);
      Alcotest.(check (result string string)) "c2" (Ok "TWO") (read_as c2 two)
  | _ -> Alcotest.failf "expected 3 replies, got %d" (List.length replies));
  let spent1, _ = Serve.quota_state plane ~tenant:"acme" in
  let spent2, _ = Serve.quota_state plane ~tenant:"globex" in
  Alcotest.(check bool) "acme charged" true (spent1 > 0);
  Alcotest.(check bool) "globex charged" true (spent2 > 0);
  Serve.destroy plane

let test_many_requests_ordered () =
  (* A burst across several flushes keeps sequence discipline and reply
     order on a multi-core scheduler. *)
  let config =
    { Serve.default_config with
      Serve.sched = { Sched.default_config with Sched.cores = 4; drop_on_error = true; batch = 4 } }
  in
  let _p, plane, _backend, client = build ~seed:7017L ~config () in
  establish plane client;
  for round = 0 to 2 do
    let reqs =
      List.init 8 (fun i -> (1, Bytes.of_string (Printf.sprintf "r%d-%d" round i)))
    in
    let replies = Serve.Client.roundtrip plane client reqs in
    Alcotest.(check int) "all replied" 8 (List.length replies);
    List.iteri
      (fun i reply ->
        match reply with
        | Ok body ->
            Alcotest.(check string) "in order"
              (Printf.sprintf "r%d-%d" round i)
              (Bytes.to_string body)
        | Error r -> Alcotest.failf "request failed: %a" Serve.pp_reject r)
      replies
  done;
  let stats = Serve.sched_stats plane in
  Alcotest.(check int) "scheduler served all requests" 24 stats.Sched.total_requests;
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* EDMM session state                                                  *)

let test_resize_session_edmm () =
  let _p, plane, backend, client = build ~seed:7020L () in
  establish plane client;
  let enclave = Urts.enclave (Option.get backend.Backend.urts) in
  let before = enclave.Enclave.stats.Enclave.dyn_pages in
  (match Serve.resize_session plane ~session:(Serve.Client.session_id client) ~pages:4 with
  | Ok n -> Alcotest.(check int) "pages committed" 4 n
  | Error r -> Alcotest.failf "resize rejected: %a" Serve.pp_reject r);
  Alcotest.(check bool) "EDMM demand-committed pages" true
    (enclave.Enclave.stats.Enclave.dyn_pages > before);
  (* Out-of-stride requests are a caller error. *)
  (try
     ignore (Serve.resize_session plane ~session:(Serve.Client.session_id client)
               ~pages:(Serve.state_stride_pages + 1));
     Alcotest.fail "oversized resize accepted"
   with Invalid_argument _ -> ());
  Serve.destroy plane

let test_state_ecall_reserved () =
  let p = Platform.create ~seed:7022L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  (try
     ignore
       (Serve.add_tenant plane ~name:"clash"
          { (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
            Backend.handlers = [ (Serve.state_ecall, fun _ input -> input) ] });
     Alcotest.fail "reserved ECALL collision accepted"
   with Invalid_argument _ -> ());
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* Graceful degradation under injected faults                          *)

let test_transient_fault_absorbed () =
  let _p, plane, _backend, client = build ~seed:7030L () in
  establish plane client;
  Fault.install [ { Fault.site = "serve.session"; nth = 1; kind = Fault.Transient } ];
  let replies = Serve.Client.roundtrip plane client [ (1, Bytes.of_string "survive") ] in
  Fault.clear ();
  (match replies with
  | [ Ok body ] -> Alcotest.(check string) "served through retry" "survive" (Bytes.to_string body)
  | [ Error r ] -> Alcotest.failf "transient fault not absorbed: %a" Serve.pp_reject r
  | _ -> Alcotest.fail "expected one reply");
  Serve.destroy plane

(* A transient fault inside a handler retries the ring from the slot
   that faulted, and the retry opens that slot again: the enclave knows
   the number it admitted into the window a moment ago is the same
   request, so the retry serves instead of being refused as a replay. *)
let test_transient_fault_in_handler () =
  let ran = ref [] in
  let handlers =
    [
      ( 1,
        fun _env input ->
          let s = Bytes.to_string input in
          ran := s :: !ran;
          if s = "b" && List.length !ran = 2 then
            raise (Fault.Injected { site = "test.handler"; kind = Fault.Transient });
          input );
    ]
  in
  let _p, plane, _backend, client = build ~seed:7032L ~handlers () in
  establish plane client;
  List.iter
    (fun s -> admit plane (Serve.Client.request client ~ecall:1 (Bytes.of_string s)))
    [ "a"; "b" ];
  Alcotest.(check (list (result string string))) "both served"
    [ Ok "a"; Ok "b" ]
    (List.map (read_as client) (Serve.flush plane));
  Alcotest.(check (list string)) "b's handler re-ran" [ "a"; "b"; "b" ] (List.rev !ran);
  Serve.destroy plane

let test_permanent_fault_typed () =
  let p, plane, _backend, client = build ~seed:7031L () in
  establish plane client;
  (* Make sure the session works, then break it permanently at the next
     site crossing: the reply must be a typed Session_fault, invariants
     must stay green, and the session must keep working afterwards. *)
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "ok") ] with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "pre-fault roundtrip failed");
  let inv_failures = ref [] in
  Fault.install [ { Fault.site = "serve.session"; nth = 1; kind = Fault.Permanent } ];
  Fault.on_inject (fun ~site:_ _kind ->
      match Invariants.check p.Platform.monitor with
      | [] -> ()
      | findings -> inv_failures := Invariants.summary findings :: !inv_failures);
  let replies = Serve.Client.roundtrip plane client [ (1, Bytes.of_string "doomed") ] in
  Fault.clear ();
  Alcotest.(check (list string)) "invariants green at injection" [] !inv_failures;
  (match replies with
  | [ Error (Serve.Session_fault _) ] -> ()
  | [ Ok _ ] -> Alcotest.fail "permanent fault produced a clean reply"
  | [ Error r ] -> Alcotest.failf "expected session-fault, got %a" Serve.pp_reject r
  | _ -> Alcotest.fail "expected one reply");
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "after") ] with
  | [ Ok body ] -> Alcotest.(check string) "session recovered" "after" (Bytes.to_string body)
  | _ -> Alcotest.fail "session unusable after typed fault");
  Serve.destroy plane

(* A permanent fault at the flush's first crossing of a marshalling site
   fails only the ring it hits, inside the scheduler.  One session's 12
   requests fill shard 0's ring with 8 and shard 1's with 4; core 0 runs
   its ring first, so its 8 requests get the site's Session_fault, the
   other 4 are served, and the scheduler counts 4 completed and 8
   failed.  Nothing runs on the plane's clock. *)
let test_marshalling_fault_fails_its_ring () =
  List.iter
    (fun site ->
      let config =
        { Serve.default_config with
          Serve.sched = { Sched.default_config with Sched.cores = 2 } }
      in
      let _p, plane, _backend, client = build ~seed:7700L ~config () in
      establish plane client;
      for i = 1 to 12 do
        admit plane
          (Serve.Client.request client ~ecall:1 (Bytes.of_string (string_of_int i)))
      done;
      let s0 = Serve.sched_stats plane and l0 = Serve.ledger plane in
      Fault.install [ { Fault.site; nth = 1; kind = Fault.Permanent } ];
      let replies = Fun.protect ~finally:Fault.clear (fun () -> Serve.flush plane) in
      let s1 = Serve.sched_stats plane and l1 = Serve.ledger plane in
      let count f = List.length (List.filter f replies) in
      Alcotest.(check int) (site ^ ": 4 served") 4
        (count (fun r -> Result.is_ok r.Serve.r_result));
      Alcotest.(check int) (site ^ ": 8 faults naming the site") 8
        (count (fun r ->
             r.Serve.r_result
             = Error (Serve.Session_fault ("injected permanent fault at " ^ site))));
      Alcotest.(check (pair int int)) (site ^ ": scheduler completed, failed")
        (4, 8)
        ( s1.Sched.total_requests - s0.Sched.total_requests,
          s1.Sched.failed_requests - s0.Sched.failed_requests );
      Alcotest.(check (pair int int)) (site ^ ": ledger served, serial") (4, 0)
        ( l1.Serve.served - l0.Serve.served,
          l1.Serve.serial_cycles - l0.Serve.serial_cycles );
      Serve.destroy plane)
    [ "sdk.ms_copy_in"; "sdk.ms_copy_out" ]

let test_chaos_two_tenants_two_cores () =
  (* Seeded chaos over the serving plane: 2 tenants, 2 cores, faults on
     every site the serving path crosses.  Every request must end in a
     clean reply or a typed rejection — never an escaped exception —
     with monitor invariants green at the moment of every injection. *)
  let seeds = [ 9100; 9200; 9300 ] in
  List.iter
    (fun seed ->
      let p = Platform.create ~seed:(Int64.of_int (0x5E12E000 + seed)) () in
      let plane =
        Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p
          { Serve.default_config with
            Serve.sched = { Sched.default_config with Sched.cores = 2; drop_on_error = true } }
      in
      let b1 = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
      let b2 =
        Serve.add_tenant plane ~name:"globex"
          (tenant_config ~kind:(Backend.Hyperenclave Sgx_types.HU) ())
      in
      let mk backend seed =
        let identity = Option.get backend.Backend.identity in
        Serve.Client.create ~rng:(Rng.create ~seed) ~golden:(golden_of p)
          ~policy:(policy_pinning identity) ~expected_tenant:identity ()
      in
      let c1 = mk b1 11L and c2 = mk b2 12L in
      establish plane c1;
      (match Serve.handshake plane ~tenant:"globex" (Serve.Client.hello c2) with
      | Ok accept -> (
          match Serve.Client.establish c2 accept with
          | Ok () -> ()
          | Error r -> Alcotest.failf "globex establish: %a" Serve.pp_reject r)
      | Error r -> Alcotest.failf "globex handshake: %a" Serve.pp_reject r);
      let plan =
        Fault.plan_of_seed
          ~sites:
            [ "serve.session"; "sdk.ms_copy_in"; "sdk.ms_copy_out";
              "switch.aex"; "switch.eresume"; "epc.alloc" ]
          ~faults:5 (Int64.of_int seed)
      in
      let plan_str = Fault.plan_to_string plan in
      let inv_failures = ref [] in
      Fault.install ~telemetry:(Monitor.telemetry p.Platform.monitor) plan;
      Fault.on_inject (fun ~site _kind ->
          match Invariants.check p.Platform.monitor with
          | [] -> ()
          | findings ->
              inv_failures := (site, Invariants.summary findings) :: !inv_failures);
      for round = 0 to 3 do
        List.iter
          (fun (client, tag) ->
            let reqs =
              List.init 3 (fun i ->
                  (1, Bytes.of_string (Printf.sprintf "%s-%d-%d" tag round i)))
            in
            match Serve.Client.roundtrip plane client reqs with
            | exception e ->
                Alcotest.failf "escaped exception under plan %s: %s" plan_str
                  (Printexc.to_string e)
            | replies ->
                List.iter
                  (function
                    | Ok _ -> ()
                    | Error r ->
                        (* Typed degradation is the contract; anything
                           typed is acceptable under chaos. *)
                        ignore (Serve.reject_name r))
                  replies)
          [ (c1, "a"); (c2, "g") ]
      done;
      Fault.clear ();
      (match !inv_failures with
      | [] -> ()
      | (site, summary) :: _ ->
          Alcotest.failf "invariants broken at %s under plan %s: %s" site plan_str
            summary);
      (match Invariants.check p.Platform.monitor with
      | [] -> ()
      | findings ->
          Alcotest.failf "invariants broken after chaos run: %s"
            (Invariants.summary findings));
      Serve.destroy plane)
    seeds

(* ------------------------------------------------------------------ *)
(* Session lifecycle: close, churn, bounded replay cache, teardown     *)

let test_close_session () =
  let _p, plane, _backend, client = build ~seed:7050L () in
  establish plane client;
  let sid = Serve.Client.session_id client in
  (* A queued request is dropped with its session: nothing of it may
     survive to the next flush, and its queue slot is released. *)
  (match Serve.submit plane (Serve.Client.request client ~ecall:1 (Bytes.of_string "doomed")) with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r);
  (match Serve.close_session plane ~session:sid with
  | Ok () -> ()
  | Error r -> Alcotest.failf "close rejected: %a" Serve.pp_reject r);
  Alcotest.(check int) "session gone" 0 (Serve.session_count plane);
  Alcotest.(check int) "pending dropped" 0 (List.length (Serve.flush plane));
  expect_reject "unknown-session"
    (Serve.submit plane (Serve.Client.request client ~ecall:1 Bytes.empty));
  expect_reject "unknown-session" (Serve.close_session plane ~session:sid);
  Serve.destroy plane

let test_session_churn_reuses_state_slots () =
  (* PR 6 lifecycle fix: closed sessions recycle their EDMM state slot
     through the tenant free list.  Observable through the enclave's
     dynamic-page count — a reused slot's stride is already committed,
     so churning sessions must not keep growing the heap. *)
  let _p, plane, backend, client = build ~seed:7051L () in
  let enclave = Urts.enclave (Option.get backend.Backend.urts) in
  let reconnect () =
    establish plane client;
    match Serve.resize_session plane ~session:(Serve.Client.session_id client) ~pages:2 with
    | Ok _ -> ()
    | Error r -> Alcotest.failf "resize rejected: %a" Serve.pp_reject r
  in
  reconnect ();
  let after_first = enclave.Enclave.stats.Enclave.dyn_pages in
  for _ = 1 to 8 do
    (match Serve.close_session plane ~session:(Serve.Client.session_id client) with
    | Ok () -> ()
    | Error r -> Alcotest.failf "close rejected: %a" Serve.pp_reject r);
    reconnect ()
  done;
  Alcotest.(check int) "slot reuse: no dynamic-page growth under churn"
    after_first enclave.Enclave.stats.Enclave.dyn_pages;
  Alcotest.(check int) "one live session after churn" 1 (Serve.session_count plane);
  Serve.destroy plane

(* Hello [i] of a numbered run whose share is no group element: it
   burns its nonce and costs the plane nothing else. *)
let garbage_hello i =
  let nonce = Bytes.make 16 'n' in
  Bytes.set_int64_le nonce 0 (Int64.of_int i);
  { Serve.nonce; client_kx = Bytes.make 32 'x' }

(* Burn the nonces of garbage hellos 0 to [n - 1]. *)
let burn_nonces plane n =
  for i = 0 to n - 1 do
    expect_reject "unknown-key-share"
      (Serve.handshake plane ~tenant:"acme" (garbage_hello i))
  done

let test_nonce_cache_bounded () =
  (* The replay cache remembers only the last 1,024 nonces — a hard
     memory bound.  Recent nonces are still rejected; one pushed out by
     newer handshakes is accepted again (the documented trade of a
     bounded cache). *)
  let _p, plane, _backend, client = build ~seed:7052L () in
  let oldest = Serve.Client.hello client in
  (match Serve.handshake plane ~tenant:"acme" oldest with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r);
  burn_nonces plane 1024;
  expect_reject "replayed-nonce"
    (Serve.handshake plane ~tenant:"acme" (garbage_hello 1023));
  (match Serve.handshake plane ~tenant:"acme" oldest with
  | Ok _ -> ()
  | Error r ->
      Alcotest.failf "evicted nonce should re-admit (bounded cache): %a"
        Serve.pp_reject r);
  Serve.destroy plane

(* The replay cache is bounded in bytes too: a hello or resume whose
   nonce is not 16 bytes long is refused before the cache sees it.  64
   hellos and 64 resumes with 64 KiB nonces (the hellos' shares are no
   group element, so a burnt nonce would be all they leave) keep the
   oldest nonce of a full cache cached, so none was burnt, and leave the
   live heap where it was. *)
let test_nonce_cache_bytes_bounded () =
  let _p, plane, _backend, client = build ~seed:7052L () in
  let oldest = Serve.Client.hello client in
  (match Serve.handshake plane ~tenant:"acme" oldest with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r);
  burn_nonces plane 1023;
  let long_nonce i =
    let nonce = Bytes.make 65536 'n' in
    Bytes.set_int64_le nonce 0 (Int64.of_int i);
    nonce
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let live0 = live_words () in
  for i = 0 to 63 do
    expect_reject "bad-wire"
      (Serve.handshake plane ~tenant:"acme"
         { (garbage_hello i) with Serve.nonce = long_nonce i });
    expect_reject "bad-wire"
      (Serve.resume plane
         { Serve.r_ticket = Bytes.of_string "junk"; r_nonce = long_nonce (64 + i) })
  done;
  List.iter
    (fun len ->
      expect_reject "bad-wire"
        (Serve.handshake plane ~tenant:"acme"
           { (garbage_hello 0) with Serve.nonce = Bytes.make len 'n' }))
    [ 0; 15; 17 ];
  let grown =
    float_of_int ((live_words () - live0) * (Sys.word_size / 8)) /. 1048576.
  in
  if grown >= 0.1 then
    Alcotest.failf "refused nonces grew the live heap by %.2f MB" grown;
  expect_reject "replayed-nonce" (Serve.handshake plane ~tenant:"acme" oldest);
  Serve.destroy plane

(* Each tenant's LLC model builds its slab on its first access, which an
   echo tenant never makes: adding one grows the live heap by under
   0.5 MB (1.28 MB with an eager slab).  Serving it builds no leaf of
   the normal VM's nested table, which late launch leaves unbuilt. *)
let test_echo_tenant_footprint () =
  let p, plane, _backend, client = build ~seed:7059L () in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576. in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live_words () in
  ignore (Serve.add_tenant plane ~name:"beta" (tenant_config ()));
  let grown = mb (live_words () - before) in
  if grown >= 0.5 then
    Alcotest.failf "an echo tenant grew the live heap by %.2f MB" grown;
  establish plane client;
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "hi") ] with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "echo request failed");
  let npt =
    mb (Obj.reachable_words (Obj.repr (Monitor.normal_npt p.Platform.monitor)))
  in
  if npt >= 0.1 then
    Alcotest.failf "the normal NPT holds %.2f MB after serving" npt;
  Serve.destroy plane

let test_destroy_owns_tenant_backends () =
  (* PR 6 teardown fix: the plane created the tenant backends, so
     [destroy] tears them down too — no enclave outlives the plane —
     and destroying twice is a harmless no-op. *)
  let p, plane, _backend, client = build ~seed:7053L () in
  establish plane client;
  Alcotest.(check bool) "tenant enclave live" true
    (Monitor.enclave_count p.Platform.monitor > 0);
  Serve.destroy plane;
  Alcotest.(check int) "no enclave outlives the plane" 0
    (Monitor.enclave_count p.Platform.monitor);
  Alcotest.(check int) "session table cleared" 0 (Serve.session_count plane);
  Serve.destroy plane;
  (match Invariants.check p.Platform.monitor with
  | [] -> ()
  | findings ->
      Alcotest.failf "invariants broken after teardown: %s"
        (Invariants.summary findings))

(* ------------------------------------------------------------------ *)
(* Scheduler statistics must be a read-only snapshot                   *)

let test_sched_stats_read_only () =
  (* Regression: [sched_stats] used to call the mutating [Sched.run],
     silently draining whatever was queued.  A snapshot taken between
     submit and flush must neither serve the queued request nor change
     across repeated calls. *)
  let _p, plane, _backend, client = build ~seed:7054L () in
  establish plane client;
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "warm") ] with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "warm-up roundtrip failed");
  (match Serve.submit plane (Serve.Client.request client ~ecall:1 (Bytes.of_string "queued")) with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r);
  let s1 = Serve.sched_stats plane in
  let s2 = Serve.sched_stats plane in
  Alcotest.(check int) "snapshot is stable across calls"
    s1.Sched.total_requests s2.Sched.total_requests;
  Alcotest.(check int) "snapshot did not serve the queued request" 1
    s1.Sched.total_requests;
  (* The queued request is still there for flush to serve. *)
  (match Serve.flush plane with
  | [ reply ] -> (
      match Serve.Client.read_reply client reply with
      | Ok body -> Alcotest.(check string) "still served" "queued" (Bytes.to_string body)
      | Error r -> Alcotest.failf "reply rejected: %a" Serve.pp_reject r)
  | replies -> Alcotest.failf "expected 1 reply, got %d" (List.length replies));
  let s3 = Serve.sched_stats plane in
  Alcotest.(check int) "flush, not stats, advanced the counter" 2
    s3.Sched.total_requests;
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* Reply-channel splice and direction attacks                          *)

let test_reply_splice_rejected () =
  (* Replies are sealed to their session and sequence: a reply lifted
     from tenant A's channel must bounce off client B, a re-numbered
     reply must fail its derived AAD, a tampered or cut frame must fail
     its tag, and a reply frame fed back in as a request must trip the
     direction binding — all typed, never raised, with monitor
     invariants green throughout. *)
  let p = Platform.create ~seed:7055L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let b1 = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
  let b2 = Serve.add_tenant plane ~name:"globex" (tenant_config ()) in
  let mk backend seed =
    let identity = Option.get backend.Backend.identity in
    Serve.Client.create ~rng:(Rng.create ~seed) ~golden:(golden_of p)
      ~policy:(policy_pinning identity) ~expected_tenant:identity ()
  in
  let c1 = mk b1 21L and c2 = mk b2 22L in
  establish plane c1;
  (match Serve.handshake plane ~tenant:"globex" (Serve.Client.hello c2) with
  | Ok accept -> (
      match Serve.Client.establish c2 accept with
      | Ok () -> ()
      | Error r -> Alcotest.failf "globex establish: %a" Serve.pp_reject r)
  | Error r -> Alcotest.failf "globex handshake: %a" Serve.pp_reject r);
  (match Serve.submit plane (Serve.Client.request c1 ~ecall:1 (Bytes.of_string "mine")) with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r);
  (match Serve.flush plane with
  | [ reply ] ->
      (* Cross-session read: wrong recipient, typed refusal. *)
      expect_reject "unknown-session" (Serve.Client.read_reply c2 reply);
      (* Re-numbered reply: the AAD binds the sequence. *)
      expect_reject "bad-auth"
        (Serve.Client.read_reply c1 { reply with Serve.r_seq = reply.Serve.r_seq + 9 });
      (match reply.Serve.r_result with
      | Ok () ->
          let frame = reply_frame reply in
          List.iter
            (fun (what, lie) ->
              match
                Serve.Client.read_reply c1
                  { reply with Serve.r_image = lie; r_off = 0; r_len = Bytes.length lie }
              with
              | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
              | r -> Alcotest.(check string) what "bad-auth" (outcome r))
            (frame_lies frame);
          (* A view outside its image is a lie too, never an exception. *)
          List.iter
            (fun (what, view) ->
              Alcotest.(check string) what "bad-auth"
                (outcome (Serve.Client.read_reply c1 view)))
            [
              ("offset past the image", { reply with Serve.r_off = Bytes.length reply.Serve.r_image });
              ("negative offset", { reply with Serve.r_off = -1 });
              ("length past the image", { reply with Serve.r_len = max_int });
            ];
          (* The rightful recipient still reads it cleanly, until the
             plane's next flush. *)
          (match Serve.Client.read_reply c1 reply with
          | Ok body -> Alcotest.(check string) "rightful read" "mine" (Bytes.to_string body)
          | Error r -> Alcotest.failf "rightful read rejected: %a" Serve.pp_reject r);
          (* Reply-as-request: the direction byte in nonce and AAD domain
             separate the two halves of the channel, so the enclave
             refuses it in the flush that serves the next request. *)
          admit plane
            { Serve.session_id = reply.Serve.r_session_id;
              seq = reply.Serve.r_seq;
              ecall_id = 1;
              frame };
          admit plane (Serve.Client.request c1 ~ecall:1 (Bytes.of_string "next"));
          (match List.map (read_as c1) (Serve.flush plane) with
          | [ reflected; next ] ->
              Alcotest.(check (result string string)) "reply-as-request"
                (Error "bad-auth") reflected;
              Alcotest.(check (result string string)) "next" (Ok "next") next
          | replies -> Alcotest.failf "expected 2 replies, got %d" (List.length replies));
          (* That flush rewrote the ring the reply views: reading it now
             is a typed refusal, never the bytes of the requests since. *)
          Alcotest.(check (result string string)) "read after the next flush"
            (Error "stale-reply") (read_as c1 reply)
      | Error r -> Alcotest.failf "reply carried a rejection: %a" Serve.pp_reject r)
  | replies -> Alcotest.failf "expected 1 reply, got %d" (List.length replies));
  (match Invariants.check p.Platform.monitor with
  | [] -> ()
  | findings ->
      Alcotest.failf "invariants broken after splice attempts: %s"
        (Invariants.summary findings));
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* Session resumption tickets                                          *)

let test_ticket_resume () =
  let p, plane, _backend, client = build ~seed:7056L () in
  establish plane client;
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "full") ] with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "pre-ticket roundtrip failed");
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r
  in
  let old_sid = Serve.Client.session_id client in
  let resume = Serve.Client.resume_hello client ~ticket in
  (match Serve.resume plane resume with
  | Ok resumed ->
      Alcotest.(check bool) "fresh session id" true
        (resumed.Serve.rs_session_id <> old_sid);
      Serve.Client.complete_resume client resumed
  | Error r -> Alcotest.failf "resume rejected: %a" Serve.pp_reject r);
  (* The resumed channel serves without any new quote having been cut. *)
  (match Serve.Client.roundtrip plane client [ (2, Bytes.of_string "resumed") ] with
  | [ Ok body ] -> Alcotest.(check string) "served on resumed key" "RESUMED" (Bytes.to_string body)
  | _ -> Alcotest.fail "resumed roundtrip failed");
  let tel = Monitor.telemetry p.Platform.monitor in
  Alcotest.(check int) "resume counted" 1 (Telemetry.counter tel "serve.resume");
  Alcotest.(check int) "only the handshake cut a quote" 1
    (Telemetry.counter tel "serve.handshake");
  Serve.destroy plane

let test_ticket_tampered () =
  let _p, plane, _backend, client = build ~seed:7057L () in
  establish plane client;
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r
  in
  let tampered = Bytes.copy ticket in
  let mid = Bytes.length tampered / 2 in
  Bytes.set tampered mid (Char.chr (Char.code (Bytes.get tampered mid) lxor 1));
  expect_reject "bad-ticket"
    (Serve.resume plane (Serve.Client.resume_hello client ~ticket:tampered));
  (* Garbage that never parses is the same typed refusal, not a crash. *)
  let client2_resume = { Serve.r_ticket = Bytes.of_string "junk"; r_nonce = Bytes.make 16 'n' } in
  expect_reject "bad-ticket" (Serve.resume plane client2_resume);
  Serve.destroy plane

let test_ticket_expired () =
  let config = { Serve.default_config with Serve.ticket_ttl = 1_000 } in
  let p, plane, _backend, client = build ~seed:7058L ~config () in
  establish plane client;
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r
  in
  Cycles.tick p.Platform.clock 2_000;
  expect_reject "ticket-expired"
    (Serve.resume plane (Serve.Client.resume_hello client ~ticket));
  Serve.destroy plane

let test_ticket_replay_rejected () =
  (* The client's fresh resume nonce is burnt on first use: a resume
     record replayed while its nonce is cached opens no second session.
     After eviction it may open one, whose key nobody holds: "a resume
     replayed after eviction serves nobody". *)
  let _p, plane, _backend, client = build ~seed:7059L () in
  establish plane client;
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r
  in
  let resume = Serve.Client.resume_hello client ~ticket in
  (match Serve.resume plane resume with
  | Ok resumed -> Serve.Client.complete_resume client resumed
  | Error r -> Alcotest.failf "first resume rejected: %a" Serve.pp_reject r);
  expect_reject "replayed-nonce" (Serve.resume plane resume);
  (* The legitimately resumed session is unaffected by the replay. *)
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "still here") ] with
  | [ Ok body ] -> Alcotest.(check string) "unaffected" "still here" (Bytes.to_string body)
  | _ -> Alcotest.fail "resumed session broken by replay attempt");
  Serve.destroy plane

(* A resume record replayed once its nonce has left the replay cache
   opens a session, but one whose key nobody holds: each resume draws a
   fresh server nonce, which the resumed key takes after the client's.
   The clone is the client rebuilt from its RNG seed and the recorded
   accept, so it holds the client's resumption nonce and ticketed key;
   completed with the first answer's server nonce against the replayed
   session id, its frames read bad-auth, while the client's own session
   still serves. *)
let test_resume_replay_after_eviction () =
  let seed = 7059L in
  let p, plane, backend, client = build ~seed () in
  let accept =
    match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello client) with
    | Ok a -> a
    | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  in
  (match Serve.Client.establish client accept with
  | Ok () -> ()
  | Error r -> Alcotest.failf "establish failed: %a" Serve.pp_reject r);
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r
  in
  let resume = Serve.Client.resume_hello client ~ticket in
  let first =
    match Serve.resume plane resume with
    | Ok resumed -> resumed
    | Error r -> Alcotest.failf "resume rejected: %a" Serve.pp_reject r
  in
  Serve.Client.complete_resume client first;
  burn_nonces plane 1024;
  let replayed =
    match Serve.resume plane resume with
    | Ok resumed -> resumed
    | Error r -> Alcotest.failf "replayed resume: %a" Serve.pp_reject r
  in
  let identity = Option.get backend.Backend.identity in
  let clone =
    Serve.Client.create
      ~rng:(Rng.create ~seed:(Int64.add seed 1L))
      ~golden:(golden_of p) ~policy:(policy_pinning identity)
      ~expected_tenant:identity ()
  in
  ignore (Serve.Client.hello clone : Serve.hello);
  (match Serve.Client.establish clone accept with
  | Ok () -> ()
  | Error r -> Alcotest.failf "clone establish: %a" Serve.pp_reject r);
  ignore (Serve.Client.resume_hello clone ~ticket : Serve.resume);
  Serve.Client.complete_resume clone
    { first with Serve.rs_session_id = replayed.Serve.rs_session_id };
  let ping c =
    match Serve.Client.roundtrip plane c [ (1, Bytes.of_string "ping") ] with
    | [ r ] -> Result.map_error Serve.reject_name (Result.map Bytes.to_string r)
    | _ -> Alcotest.fail "expected one reply"
  in
  Alcotest.(check (result string string)) "the replayed session serves nobody"
    (Error "bad-auth") (ping clone);
  Alcotest.(check (result string string)) "the client's session serves"
    (Ok "ping") (ping client);
  Serve.destroy plane

let test_telemetry_counters () =
  let p, plane, _backend, client = build ~seed:7040L () in
  establish plane client;
  (match Serve.Client.roundtrip plane client [ (1, Bytes.of_string "t") ] with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "roundtrip failed");
  expect_reject "unknown-tenant"
    (Serve.handshake plane ~tenant:"ghost" (Serve.Client.hello client));
  let tel = Monitor.telemetry p.Platform.monitor in
  let check_counter name expected =
    Alcotest.(check int) name expected (Telemetry.counter tel name)
  in
  check_counter "serve.handshake" 1;
  check_counter "serve.session_open" 1;
  check_counter "serve.request.admitted" 1;
  check_counter "serve.request.ok" 1;
  check_counter "serve.reject.unknown-tenant" 1;
  (* PR 7 arena watermarks: one staged request, one ring shard used. *)
  check_counter "serve.arena.high_water" 1;
  check_counter "serve.ring.shards_active" 1;
  Alcotest.(check bool) "tenant cycles recorded" true
    (Telemetry.counter tel "serve.tenant.acme.cycles" > 0);
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* PR 7: allocation-free arena path                                    *)

(* A second/third client on the same tenant of an existing plane: the
   Hyperenclave-kind backend self-quotes, so the tenant identity is also
   the pinned measurement. *)
let extra_client (p : Platform.t) (backend : Backend.t) ~seed =
  let identity =
    match backend.Backend.identity with Some id -> id | None -> Bytes.empty
  in
  Serve.Client.create ~rng:(Rng.create ~seed) ~golden:(golden_of p)
    ~policy:(policy_pinning identity) ~expected_tenant:identity ()

(* [echo_handlers] as a pure function, for the spec. *)
let echo_spec ecall input = if ecall = 2 then upper input else input

(* The plane against its executable spec ([Serve_spec]): every flush of
   generated traffic must return exactly the replies the spec derives
   from the admitted requests — order, ids, nonce, AAD and body, which
   together pin every byte on the wire.  Tenant [zeta] (GU, two
   sessions) is added before [alpha] (HU), but alpha's session opens
   first, so insertion order, name order and session-id order all
   disagree.  The host mixes in lies: a copy of a frame with one bit
   flipped, admitted before the frame itself, must be bad-auth, and a
   frame admitted twice must serve once and be bad-sequence once, while
   every other reply, on the same ring too, still matches the spec. *)
let spec_property batches =
  let p = Platform.create ~seed:7050L () in
  let config =
    {
      Serve.default_config with
      Serve.sched =
        { Sched.default_config with Sched.cores = 4; Sched.batch = 4 };
    }
  in
  let plane =
    Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p config
  in
  let zeta = Serve.add_tenant plane ~name:"zeta" (tenant_config ()) in
  let alpha =
    Serve.add_tenant plane ~name:"alpha"
      (tenant_config ~kind:(Backend.Hyperenclave Sgx_types.HU) ())
  in
  let connect ~tenant (backend : Backend.t) ~seed =
    let identity = Option.get backend.Backend.identity in
    let client =
      Serve.Client.create ~rng:(Rng.create ~seed) ~golden:(golden_of p)
        ~policy:(policy_pinning identity) ~expected_tenant:identity ()
    in
    (match Serve.handshake plane ~tenant (Serve.Client.hello client) with
    | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
    | Ok accept -> (
        match Serve.Client.establish client accept with
        | Error r -> Alcotest.failf "establish failed: %a" Serve.pp_reject r
        | Ok () -> ()));
    client
  in
  let a0 = connect ~tenant:"alpha" alpha ~seed:7150L in
  let z1 = connect ~tenant:"zeta" zeta ~seed:7250L in
  let z2 = connect ~tenant:"zeta" zeta ~seed:7350L in
  (* (client, tenant rank) *)
  let clients = [| (a0, 1); (z1, 0); (z2, 0) |] in
  let read_reply (r : Serve.reply) =
    let client, _ =
      List.find
        (fun (c, _) -> Serve.Client.session_id c = r.Serve.r_session_id)
        (Array.to_list clients)
    in
    Serve.Client.read_reply client r
  in
  let serve_batch batch =
    let admitted =
      List.concat_map
        (fun (c, ecall, payload, lie) ->
          let client, tenant_rank = clients.(c) in
          let payload = Bytes.of_string payload in
          let req = Serve.Client.request client ~ecall payload in
          let body = echo_spec ecall payload in
          let frames, outcomes =
            match lie mod 4 with
            | 0 ->
                let f = Bytes.copy req.Serve.frame in
                let bit = lie / 4 mod (8 * Bytes.length f) in
                Bytes.set f (bit / 8)
                  (Char.chr (Char.code (Bytes.get f (bit / 8)) lxor (1 lsl (bit mod 8))));
                ([ f; req.Serve.frame ], [ Serve_spec.Refused "bad-auth"; Served body ])
            | 1 -> ([ req.Serve.frame; req.Serve.frame ], [ Copy body; Copy body ])
            | _ -> ([ req.Serve.frame ], [ Served body ])
          in
          List.map2
            (fun frame outcome ->
              admit plane { req with Serve.frame };
              {
                Serve_spec.tenant_rank;
                session_id = req.Serve.session_id;
                seq = req.Serve.seq;
                outcome;
              })
            frames outcomes)
        batch
    in
    Serve_spec.check ~read_reply admitted (Serve.flush plane)
  in
  let outcome =
    List.fold_left
      (fun acc batch -> Result.bind acc (fun () -> serve_batch batch))
      (Ok ()) batches
  in
  Serve.destroy plane;
  match outcome with
  | Ok () -> true
  | Error msg -> QCheck.Test.fail_reportf "diverges from the spec: %s" msg

let spec_qcheck =
  QCheck.Test.make ~name:"replies match the executable spec" ~count:20
    QCheck.(
      list_of_size
        Gen.(int_range 1 4)
        (list_of_size
           Gen.(int_range 0 10)
           (quad (int_bound 2) (oneofl [ 1; 2 ])
              (string_of_size Gen.(int_range 0 64))
              (int_bound 4095))))
    spec_property

let test_arena_hot_tenant_scales () =
  (* The point of block-rotor sharding: one hot tenant's traffic spreads
     across per-core rings, so adding a second core must cut the
     makespan by >= 1.6x even with a single tenant and session. *)
  let makespan ~cores =
    let config =
      {
        Serve.default_config with
        Serve.max_queue = 256;
        sched =
          { Sched.default_config with Sched.cores; Sched.batch = 16 };
      }
    in
    let _p, plane, _backend, client = build ~seed:7051L ~config () in
    establish plane client;
    for round = 0 to 2 do
      List.iteri
        (fun i () ->
          match
            Serve.submit plane
              (Serve.Client.request client ~ecall:1
                 (Bytes.of_string (Printf.sprintf "hot-%d-%d" round i)))
          with
          | Ok () -> ()
          | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r)
        (List.init 64 (fun _ -> ()));
      List.iter
        (fun (reply : Serve.reply) ->
          match reply.Serve.r_result with
          | Ok _ -> ()
          | Error r -> Alcotest.failf "reply failed: %a" Serve.pp_reject r)
        (Serve.flush plane)
    done;
    let stats = Serve.sched_stats plane in
    Serve.destroy plane;
    stats.Sched.makespan
  in
  let one = makespan ~cores:1 and two = makespan ~cores:2 in
  let speedup = float_of_int one /. float_of_int two in
  Alcotest.(check bool)
    (Printf.sprintf "hot tenant 1->2 core speedup %.2fx >= 1.6x" speedup)
    true (speedup >= 1.6)

let test_arena_per_session_order () =
  (* Rotor sharding may split one session's burst across several rings;
     replies must still come back in sequence order per session even
     when three sessions' submissions interleave. *)
  let config =
    {
      Serve.default_config with
      Serve.max_queue = 256;
      sched = { Sched.default_config with Sched.cores = 4; Sched.batch = 8 };
    }
  in
  let p, plane, backend, client0 = build ~seed:7052L ~config () in
  establish plane client0;
  let client1 = extra_client p backend ~seed:7152L in
  let client2 = extra_client p backend ~seed:7252L in
  establish plane client1;
  establish plane client2;
  let clients = [| client0; client1; client2 |] in
  let sent = Array.make (Array.length clients) [] in
  for i = 0 to 19 do
    Array.iteri
      (fun c client ->
        let payload = Printf.sprintf "s%d-%d" c i in
        sent.(c) <- payload :: sent.(c);
        match
          Serve.submit plane
            (Serve.Client.request client ~ecall:1 (Bytes.of_string payload))
        with
        | Ok () -> ()
        | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r)
      clients
  done;
  let replies = Serve.flush plane in
  Alcotest.(check int) "every request replied" 60 (List.length replies);
  Array.iteri
    (fun c client ->
      let sid = Serve.Client.session_id client in
      let mine =
        List.filter (fun r -> r.Serve.r_session_id = sid) replies
      in
      Alcotest.(check int)
        (Printf.sprintf "session %d reply count" c)
        20 (List.length mine);
      ignore
        (List.fold_left
           (fun prev (r : Serve.reply) ->
             Alcotest.(check bool)
               (Printf.sprintf "session %d seqs ascending" c)
               true (r.Serve.r_seq > prev);
             r.Serve.r_seq)
           (-1) mine);
      (* read_reply advances the client's expected sequence, so decoding
         in list order also proves the bodies line up with what was sent. *)
      List.iteri
        (fun i (r : Serve.reply) ->
          match Serve.Client.read_reply client r with
          | Ok body ->
              Alcotest.(check string)
                (Printf.sprintf "session %d body %d" c i)
                (Printf.sprintf "s%d-%d" c i)
                (Bytes.to_string body)
          | Error e ->
              Alcotest.failf "read_reply failed: %a" Serve.pp_reject e)
        mine)
    clients;
  Serve.destroy plane

let test_close_session_mid_stage () =
  (* Closing a session with requests already staged in the arena must
     drop exactly those slots: the flush serves the surviving session
     only, and the tenant's queue accounting stays consistent. *)
  let p, plane, backend, client_a = build ~seed:7053L () in
  establish plane client_a;
  let client_b = extra_client p backend ~seed:7153L in
  establish plane client_b;
  let submit client tag i =
    match
      Serve.submit plane
        (Serve.Client.request client ~ecall:1
           (Bytes.of_string (Printf.sprintf "%s-%d" tag i)))
    with
    | Ok () -> ()
    | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r
  in
  for i = 0 to 3 do
    submit client_a "a" i;
    submit client_b "b" i
  done;
  (match
     Serve.close_session plane ~session:(Serve.Client.session_id client_a)
   with
  | Ok () -> ()
  | Error r -> Alcotest.failf "close_session failed: %a" Serve.pp_reject r);
  let replies = Serve.flush plane in
  Alcotest.(check int) "only the live session replied" 4
    (List.length replies);
  let sid_b = Serve.Client.session_id client_b in
  List.iter
    (fun (r : Serve.reply) ->
      Alcotest.(check int) "reply belongs to the live session" sid_b
        r.Serve.r_session_id;
      match Serve.Client.read_reply client_b r with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "read_reply failed: %a" Serve.pp_reject e)
    replies;
  (* Queue accounting: the dead slots were released, so the live session
     can still fill the whole queue, and the closed one is gone. *)
  submit client_b "b2" 0;
  (match Serve.flush plane with
  | [ { Serve.r_result = Ok _; _ } ] -> ()
  | _ -> Alcotest.fail "post-close flush should serve one request");
  expect_reject "unknown-session"
    (Serve.submit plane
       (Serve.Client.request client_a ~ecall:1 (Bytes.of_string "ghost")));
  Serve.destroy plane

(* A handler raising an exception the scheduler does not type aborts its
   flush, which drops what it staged: the next flush serves only the
   request admitted after it, without running the raising request's
   handler again, and the tenant's queue count stays exact — a staged
   request still makes export and retire refuse. *)
let test_aborted_flush_drops_staged () =
  let calls = ref 0 in
  let handlers =
    [
      ( 1,
        fun _env input ->
          incr calls;
          if !calls = 1 then failwith "handler bug";
          input );
    ]
  in
  let _p, plane, _backend, client = build ~seed:7065L ~handlers () in
  establish plane client;
  let submit payload =
    match
      Serve.submit plane (Serve.Client.request client ~ecall:1 (Bytes.of_string payload))
    with
    | Ok () -> ()
    | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r
  in
  let served_alone what =
    match Serve.flush plane with
    | [ reply ] ->
        Alcotest.(check (result string string)) what (Ok what)
          (Result.map_error Serve.reject_name
             (Result.map Bytes.to_string (Serve.Client.read_reply client reply)))
    | replies -> Alcotest.failf "%s: expected 1 reply, got %d" what (List.length replies)
  in
  submit "first";
  (match Serve.flush plane with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "the handler's exception did not escape flush");
  submit "second";
  served_alone "second";
  Alcotest.(check int) "handler calls" 2 !calls;
  submit "third";
  expect_reject "tenant-busy" (Serve.export_tenant plane ~tenant:"acme");
  expect_reject "tenant-busy" (Serve.retire_tenant plane ~tenant:"acme" ~to_node:1);
  served_alone "third";
  Serve.destroy plane

let roundtrip_three plane client =
  match
    Serve.Client.roundtrip plane client
      (List.map (fun s -> (1, Bytes.of_string s)) [ "x"; "y"; "z" ])
  with
  | [ Ok _; Ok _; Ok _ ] -> ()
  | _ -> Alcotest.fail "three-request roundtrip failed"

let test_high_water_survives_rebuild () =
  (* The arena and shard high-water counters live in the platform
     monitor's telemetry, which outlives a plane.  Two planes built one
     after the other on one platform (as an upgrade or a revive does)
     each flush three requests from one session: the counters show the
     deepest flush — 3 staged requests on 1 shard — not a sum over
     planes. *)
  let p = Platform.create ~seed:7061L () in
  List.iter
    (fun seed ->
      let plane =
        Serve.create_node ~platform:p
        @@ Serve.Node_config.v ~platform:p Serve.default_config
      in
      let backend = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
      let client = extra_client p backend ~seed in
      establish plane client;
      roundtrip_three plane client;
      Serve.destroy plane)
    [ 1L; 2L ];
  let tel = Monitor.telemetry p.Platform.monitor in
  Alcotest.(check int) "deepest flush" 3
    (Telemetry.counter tel "serve.arena.high_water");
  Alcotest.(check int) "widest shard spread" 1
    (Telemetry.counter tel "serve.ring.shards_active")

(* ------------------------------------------------------------------ *)
(* Migration blob                                                      *)

(* A seeded plane's export of one tenant with one session at receive
   cursor 3 holding 2 committed EDMM pages. *)
let exported_blob () =
  let _p, plane, _backend, client = build ~seed:7060L () in
  establish plane client;
  roundtrip_three plane client;
  (match
     Serve.resize_session plane ~session:(Serve.Client.session_id client)
       ~pages:2
   with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "committed %d pages, expected 2" n
  | Error r -> Alcotest.failf "resize rejected: %a" Serve.pp_reject r);
  let blob =
    match Serve.export_tenant plane ~tenant:"acme" with
    | Ok blob -> blob
    | Error r -> Alcotest.failf "export rejected: %a" Serve.pp_reject r
  in
  Serve.destroy plane;
  blob

let test_migration_blob_kat () =
  (* Nodes running different builds exchange these bytes during a
     rolling upgrade, so the wire form is pinned byte for byte. *)
  let blob = exported_blob () in
  Alcotest.(check int) "blob length" 8331 (Bytes.length blob);
  Alcotest.(check string) "blob sha256"
    "3947e16d1c16f2314758adcc8f0449c374f73af011a0148408bffc588c9e6b13"
    (Crypto.Sha256.to_hex (Crypto.Sha256.digest_bytes blob))

let pinned what ~len ~sha frame =
  Alcotest.(check int) (what ^ " length") len (Bytes.length frame);
  Alcotest.(check string) (what ^ " sha256") sha
    (Crypto.Sha256.to_hex (Crypto.Sha256.digest_bytes frame))

(* A session's next request frame carrying [text] to ECALL 2 (which
   upper-cases it) and the frame of its reply, both pinned, then the
   reply read back. *)
let pin_exchange plane client text ~len ~request ~reply =
  let req = Serve.Client.request client ~ecall:2 (Bytes.of_string text) in
  pinned "request frame" ~len ~sha:request req.Serve.frame;
  admit plane req;
  match Serve.flush plane with
  | [ ({ Serve.r_result = Ok (); _ } as r) ] ->
      pinned "reply frame" ~len ~sha:reply (reply_frame r);
      Alcotest.(check (result string string)) "reply body"
        (Ok (String.uppercase_ascii text)) (read_as client r)
  | _ -> Alcotest.fail "expected one served reply"

(* A seeded session's first request frame and its reply frame.  Neither
   nonce nor AAD travels, so equal frames prove that every end derives
   both and builds the MAC input as nodes of earlier builds do: frames
   stay byte-compatible across a rolling upgrade. *)
let test_channel_frame_kat () =
  let _p, plane, _backend, client = build ~seed:7064L () in
  establish plane client;
  pin_exchange plane client "channel frame known answer" ~len:58
    ~request:"2e89ca1c3caff3eacdf47a30357f2bbb548d29186373610ffc4c0a30356b8fd9"
    ~reply:"115c63579fa3204237e779c39473e622b59b6f37c7384e95ade71089d9143556";
  Serve.destroy plane

(* The same pin for a ticket-resumed session: its key derives from the
   ticketed key, the client's resumption nonce and the server's on both
   ends, so these frames pin that derivation as the frames above pin the
   handshake's. *)
let test_resumed_frame_kat () =
  let _p, plane, _backend, client = build ~seed:7066L () in
  establish plane client;
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
    | Ok tk -> tk
    | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r
  in
  (match Serve.resume plane (Serve.Client.resume_hello client ~ticket) with
  | Ok resumed -> Serve.Client.complete_resume client resumed
  | Error r -> Alcotest.failf "resume rejected: %a" Serve.pp_reject r);
  pin_exchange plane client "resumed frame known answer" ~len:58
    ~request:"b42b66c505ee09bfc9721dc90e3e9eac83884668e7ef22e0013503ef88cd4b19"
    ~reply:"4a8c2811ba2029760b9e8ca65e8d794ec31eee04ff68c53dcafc699c8d55bdd6";
  Serve.destroy plane

(* The paths that open a session from a key, pinned at one seed: the
   platform cycles of a handshake and of the resume that redeems a
   ticket, the issued ticket's bytes and its issue cost, and the resumed
   session's id.  A handshake pays its EREPORT and one key setup; a
   ticket's seal and unseal each pay a setup and 3 cycles per payload
   byte, and the payload holds the tenant name (bench_zerocopy's
   13-byte name reads 4,183 for the resume, this 4-byte one 4,156). *)
let test_ticket_kat () =
  let p, plane, _backend, client = build ~seed:7096L () in
  let timed f =
    let c0 = Cycles.now p.Platform.clock in
    let r = f () in
    (r, Cycles.now p.Platform.clock - c0)
  in
  let (), handshake = timed (fun () -> establish plane client) in
  Alcotest.(check int) "handshake cycles" 2880 handshake;
  let ticket, issue =
    timed (fun () ->
        match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
        | Ok tk -> tk
        | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r)
  in
  pinned "ticket" ~len:96
    ~sha:"9a1ba1ee1c3bf8a287826e51c0328a9408309f91f325c6b6022488b0ebac520b"
    ticket;
  Alcotest.(check int) "issue cycles" 2156 issue;
  let resumed, resume =
    timed (fun () ->
        match Serve.resume plane (Serve.Client.resume_hello client ~ticket) with
        | Ok resumed -> resumed
        | Error r -> Alcotest.failf "resume rejected: %a" Serve.pp_reject r)
  in
  Alcotest.(check int) "resume cycles" 4156 resume;
  Alcotest.(check int) "resumed session id" 1 resumed.Serve.rs_session_id;
  Serve.Client.complete_resume client resumed;
  (match Serve.Client.roundtrip plane client [ (2, Bytes.of_string "ping") ] with
  | [ Ok body ] ->
      Alcotest.(check string) "resumed session serves" "PING"
        (Bytes.to_string body)
  | _ -> Alcotest.fail "the resumed session did not serve");
  Serve.destroy plane

let test_malformed_blob_refused () =
  (* Every structural fault is a typed Import_conflict that installs
     nothing: each strict prefix, one trailing byte, a session count of
     -1 or 2^40, and a key field of the wrong length.  The intact blob then installs on the same
     destination, so the refusals come from the bytes alone. *)
  let blob = exported_blob () in
  let p = Platform.create ~seed:7063L () in
  let plane =
    Serve.create_node ~platform:p
    @@ Serve.Node_config.v ~node_id:1 ~platform:p Serve.default_config
  in
  ignore (Serve.add_tenant plane ~name:"acme" (tenant_config ()) : Backend.t);
  let expect_conflict what b =
    match Serve.import_tenant plane b with
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
    | Ok _ -> Alcotest.failf "%s: malformed blob installed" what
    | Error (Serve.Import_conflict _) ->
        if Serve.session_count plane <> 0 then
          Alcotest.failf "%s: sessions installed" what
    | Error r -> Alcotest.failf "%s: %a" what Serve.pp_reject r
  in
  for len = 0 to Bytes.length blob - 1 do
    expect_conflict (Printf.sprintf "%d-byte prefix" len) (Bytes.sub blob 0 len)
  done;
  expect_conflict "trailing byte" (Bytes.cat blob (Bytes.make 1 '\000'));
  (* The count follows the magic and two length-prefixed fields: the
     tenant name and its 32-byte identity. *)
  let count_off = String.length "hemig2:" + 8 + String.length "acme" + 8 + 32 in
  Alcotest.(check int) "session count word" 1
    (Int64.to_int (Bytes.get_int64_le blob count_off));
  List.iter
    (fun (what, count) ->
      let b = Bytes.copy blob in
      Bytes.set_int64_le b count_off count;
      expect_conflict what b)
    [ ("session count -1", -1L); ("session count 2^40", Int64.shift_left 1L 40) ];
  (* A well-framed session whose key field is 16 bytes long: no session
     key has that length. *)
  let key_off = count_off + 8 + 8 in
  Alcotest.(check int) "key length word" 32
    (Int64.to_int (Bytes.get_int64_le blob key_off));
  let short =
    Bytes.cat
      (Bytes.sub blob 0 (key_off + 8 + 16))
      (Bytes.sub blob (key_off + 40) (Bytes.length blob - key_off - 40))
  in
  Bytes.set_int64_le short key_off 16L;
  expect_conflict "16-byte key" short;
  (match Serve.import_tenant plane blob with
  | Ok n -> Alcotest.(check int) "intact blob installs" 1 n
  | Error r -> Alcotest.failf "intact blob refused: %a" Serve.pp_reject r);
  Serve.destroy plane

(* Import counts every number below the blob's window top as seen: a
   request the host withheld before the move is refused after it, and
   the client's next request serves on the destination. *)
let test_import_closes_holes () =
  let _p, plane, _backend, client = build ~seed:7068L () in
  establish plane client;
  let withheld = Serve.Client.request client ~ecall:1 (Bytes.of_string "withheld") in
  admit plane (Serve.Client.request client ~ecall:1 (Bytes.of_string "served"));
  ignore (Serve.flush plane : Serve.reply list);
  let blob =
    match Serve.export_tenant plane ~tenant:"acme" with
    | Ok blob -> blob
    | Error r -> Alcotest.failf "export rejected: %a" Serve.pp_reject r
  in
  Serve.destroy plane;
  let p = Platform.create ~seed:7069L () in
  let dest =
    Serve.create_node ~platform:p
    @@ Serve.Node_config.v ~node_id:1 ~platform:p Serve.default_config
  in
  ignore (Serve.add_tenant dest ~name:"acme" (tenant_config ()) : Backend.t);
  (match Serve.import_tenant dest blob with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "installed %d sessions" n
  | Error r -> Alcotest.failf "import refused: %a" Serve.pp_reject r);
  admit dest withheld;
  admit dest (Serve.Client.request client ~ecall:1 (Bytes.of_string "after"));
  (match Serve.flush dest with
  | [ w; a ] ->
      (match w.Serve.r_result with
      | Error (Serve.Bad_sequence { expected; got }) ->
          Alcotest.(check (pair int int)) "window top, withheld number" (2, 0)
            (expected, got)
      | _ -> Alcotest.fail "the withheld request was not refused");
      Alcotest.(check (result string string)) "after" (Ok "after") (read_as client a)
  | replies -> Alcotest.failf "expected 2 replies, got %d" (List.length replies));
  Serve.destroy dest

(* The client prepares its session keys once, at [establish]: after
   warm-up, sealing a 100-byte request and unsealing its reply allocate
   only the request record, its 132-byte frame, the 100-byte plaintext
   and the [Ok] around it — 39 words; tags are written into the frame
   and checked in the keys' scratch.  Re-preparing keys per message
   (HKDF, AES schedule, HMAC pads) costs several thousand. *)
let test_client_allocation () =
  let _p, plane, _backend, client = build ~seed:7091L () in
  establish plane client;
  let payload = Bytes.make 100 'a' in
  let client_words () =
    let w0 = Gc.minor_words () in
    let req = Serve.Client.request client ~ecall:1 payload in
    let sealed = Gc.minor_words () -. w0 in
    (match Serve.submit plane req with
    | Ok () -> ()
    | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r);
    let reply =
      match Serve.flush plane with
      | [ reply ] -> reply
      | replies -> Alcotest.failf "expected 1 reply, got %d" (List.length replies)
    in
    let w1 = Gc.minor_words () in
    let body = Serve.Client.read_reply client reply in
    let unsealed = Gc.minor_words () -. w1 in
    (match body with
    | Ok body -> Alcotest.(check bytes) "echoed" payload body
    | Error r -> Alcotest.failf "read_reply failed: %a" Serve.pp_reject r);
    sealed +. unsealed
  in
  for _ = 1 to 3 do
    ignore (client_words ())
  done;
  let words = client_words () in
  if words > 44. then
    Alcotest.failf "request + read_reply allocated %.0f minor words (> 44)"
      words;
  Serve.destroy plane

(* The plane sets its request path up once: once warm, admitting and
   flushing 32 sealed requests of one session allocates per request only
   the enclave's private copy of the slot body, the reply record (a view
   of its frame in the ring's reply image) with its list cell, and the
   flush's share of its own lists and closures, about 29 words.  A
   reply frame copied out of its slot, a scheduler job and report
   closure per ring and a boxed worker context per dispatch read 46;
   building the trusted environment per dispatch and the handler env,
   tags, counter lookups and retry closures per call read 132. *)
let test_plane_allocation () =
  let _p, plane, _backend, client = build ~seed:7092L () in
  establish plane client;
  let payload = Bytes.make 100 'a' in
  let flush_words () =
    let reqs =
      List.init 32 (fun _ -> Serve.Client.request client ~ecall:1 payload)
    in
    let w0 = Gc.minor_words () in
    List.iter
      (fun req ->
        match Serve.submit plane req with
        | Ok () -> ()
        | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r)
      reqs;
    let replies = Serve.flush plane in
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) "every request answered" 32 (List.length replies);
    List.iter
      (fun reply ->
        match Serve.Client.read_reply client reply with
        | Ok body -> Alcotest.(check bytes) "echoed" payload body
        | Error r -> Alcotest.failf "read_reply failed: %a" Serve.pp_reject r)
      replies;
    words /. 32.
  in
  for _ = 1 to 3 do
    ignore (flush_words ())
  done;
  let words = flush_words () in
  if words > 35. then
    Alcotest.failf
      "submit + flush allocated %.1f minor words per request (> 35)" words;
  Serve.destroy plane

(* A flush sets little up per flush: once warm, admitting and flushing
   one sealed 100-byte request allocates the enclave's copy of the slot
   body, the reply record (a view of its frame) with its list cell, and
   the flush's own lists and closures, 98 words on 1, 2 and 8 cores
   alike; the lane's scheduler job and the worker context allocate
   nothing.  A copied reply frame, a job, queue link and report closure
   per ring and a boxed worker context per dispatch read 145; a per-core
   statistics snapshot per run, a protected worker context per
   dispatch, boxed submit options, a boxed frame per page the ring legs
   walk and a tuple per reply read 205, 212 and 254. *)
let test_one_request_flush_allocation () =
  List.iter
    (fun cores ->
      let config =
        {
          Serve.default_config with
          Serve.sched = { Sched.default_config with Sched.cores; batch = 16 };
        }
      in
      let _p, plane, _backend, client = build ~seed:7093L ~config () in
      establish plane client;
      let payload = Bytes.make 100 'a' in
      let flush_words () =
        let req = Serve.Client.request client ~ecall:1 payload in
        let w0 = Gc.minor_words () in
        admit plane req;
        let replies = Serve.flush plane in
        let words = Gc.minor_words () -. w0 in
        (match replies with
        | [ reply ] ->
            Alcotest.(check (result string string))
              "echoed" (Ok (Bytes.to_string payload)) (read_as client reply)
        | replies ->
            Alcotest.failf "expected 1 reply, got %d" (List.length replies));
        words
      in
      (* The rotor moves each flush to the next shard: warm every lane. *)
      for _ = 1 to 40 do
        ignore (flush_words () : float)
      done;
      let words = flush_words () in
      if words > 110. then
        Alcotest.failf
          "%d cores: a one-request flush allocated %.0f minor words (> 110)"
          cores words;
      Serve.destroy plane)
    [ 1; 2; 8 ]

(* An attested connect allocates what it keeps: once the client's golden
   has appraised the platform, the hello, the plane's handshake and the
   client's establish allocate the quote's fields and wire bytes, both
   key shares and the two session records with their prepared keys, plus
   a 43-word SHA-256 context for each signature, key-exchange step and
   transcript hash, about 1,700 words.  A 64-word message schedule per
   context and a boxed RNG state per draw read 2,848; a report body
   built twice per quote, a codec that framed every field in its own
   buffer and decoded nested records by copy, and key preparation in
   fresh scratch read 5,109. *)
let test_connect_allocation () =
  let _p, plane, _backend, client = build ~seed:7094L () in
  let connect_words () =
    let w0 = Gc.minor_words () in
    establish plane client;
    let words = Gc.minor_words () -. w0 in
    (match Serve.close_session plane ~session:(Serve.Client.session_id client) with
    | Ok () -> ()
    | Error r -> Alcotest.failf "close_session: %a" Serve.pp_reject r);
    words
  in
  for _ = 1 to 3 do
    ignore (connect_words () : float)
  done;
  let words = connect_words () in
  if words > 2200. then
    Alcotest.failf "a warm connect allocated %.0f minor words (> 2,200)" words;
  Serve.destroy plane

(* ------------------------------------------------------------------ *)
(* Critical-path ledger and slot limits                                *)

(* Six seeded rounds over 4 tenants x 2 sessions: each client submits a
   burst of 1-12 requests of 16-215 bytes, then one flush.  Returns, per
   round, the ledger before and after, the platform-clock advance over
   the round's submits and flush, and the replies, plus the scheduler
   statistics after the last round. *)
let ledger_rounds ~cores =
  let config =
    {
      Serve.default_config with
      Serve.max_queue = 256;
      sched = { Sched.default_config with Sched.cores; batch = 16 };
    }
  in
  let p = Platform.create ~seed:7095L () in
  let plane =
    Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p config
  in
  let clients =
    List.concat_map
      (fun k ->
        let tenant = Printf.sprintf "tenant-%d" k in
        let backend = Serve.add_tenant plane ~name:tenant (tenant_config ()) in
        List.init 2 (fun j ->
            let client =
              extra_client p backend ~seed:(Int64.of_int (7096 + (10 * k) + j))
            in
            match Serve.handshake plane ~tenant (Serve.Client.hello client) with
            | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
            | Ok accept -> (
                match Serve.Client.establish client accept with
                | Error r -> Alcotest.failf "establish failed: %a" Serve.pp_reject r
                | Ok () -> client)))
      [ 0; 1; 2; 3 ]
  in
  let rng = Rng.create ~seed:7099L in
  let clock = p.Platform.clock in
  let rounds =
    List.init 6 (fun _ ->
        let before = Serve.ledger plane and c0 = Cycles.now clock in
        List.iter
          (fun client ->
            for _ = 1 to 1 + Rng.int rng 12 do
              let data = Rng.bytes rng (16 + Rng.int rng 200) in
              match
                Serve.submit plane
                  (Serve.Client.request client ~ecall:(1 + Rng.int rng 2) data)
              with
              | Ok () -> ()
              | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r
            done)
          clients;
        let replies = Serve.flush plane in
        (before, Serve.ledger plane, Cycles.now clock - c0, replies))
  in
  let stats = Serve.sched_stats plane in
  Serve.destroy plane;
  (rounds, stats)

let test_ledger_adds_up () =
  let rounds, stats = ledger_rounds ~cores:8 in
  List.iteri
    (fun r ((b : Serve.ledger), (a : Serve.ledger), advance, replies) ->
      let d f = f a - f b in
      let serial = d (fun l -> l.Serve.serial_cycles)
      and busy = d (fun l -> l.Serve.busy_cycles)
      and slowest = d (fun l -> l.Serve.slowest_cycles) in
      let what = Printf.sprintf "round %d: " r in
      Alcotest.(check int) (what ^ "one flush") 1 (d (fun l -> l.Serve.flushes));
      Alcotest.(check int) (what ^ "served = Ok replies")
        (List.length
           (List.filter (fun r -> Result.is_ok r.Serve.r_result) replies))
        (d (fun l -> l.Serve.served));
      Alcotest.(check int) (what ^ "serial + busy = platform advance") advance
        (serial + busy);
      Alcotest.(check int) (what ^ "critical = serial + slowest")
        (serial + slowest)
        (d (fun l -> l.Serve.critical_cycles));
      (* Admission ticks no cycle and no fault fires, and every ring's
         marshalling legs run in its job: nothing is serial. *)
      Alcotest.(check int) (what ^ "serial = 0") 0 serial;
      Alcotest.(check int) (what ^ "busy = platform advance") advance busy;
      Alcotest.(check bool) (what ^ "slowest positive") true (slowest > 0))
    rounds;
  let _, last, _, _ = List.nth rounds (List.length rounds - 1) in
  Alcotest.(check int) "busy = the scheduler's summed core busy"
    (Array.fold_left (fun acc c -> acc + c.Sched.busy) 0 stats.Sched.per_core)
    last.Serve.busy_cycles;
  (* One core runs nothing in parallel: the critical path is the whole
     platform advance. *)
  let rounds, _ = ledger_rounds ~cores:1 in
  List.iter
    (fun ((b : Serve.ledger), (a : Serve.ledger), advance, _) ->
      Alcotest.(check int) "1 core: critical path = platform advance" advance
        (a.Serve.critical_cycles - b.Serve.critical_cycles))
    rounds

(* A ring's marshalling legs run in its job, so on a one-tenant plane
   every flush's quota spend, and the tenant's cycle counter, advance by
   exactly the platform clock's advance. *)
let test_quota_includes_marshalling () =
  let config =
    { Serve.default_config with
      Serve.sched = { Sched.default_config with Sched.cores = 2 } }
  in
  let p, plane, _backend, client = build ~seed:7710L ~config () in
  establish plane client;
  let telemetry = Monitor.telemetry p.Platform.monitor in
  let spent () =
    ( fst (Serve.quota_state plane ~tenant:"acme"),
      Telemetry.counter telemetry "serve.tenant.acme.cycles" )
  in
  List.iter
    (fun n ->
      for i = 1 to n do
        admit plane
          (Serve.Client.request client ~ecall:1 (Bytes.of_string (string_of_int i)))
      done;
      let q0, c0 = spent () and p0 = Cycles.now p.Platform.clock in
      List.iter
        (fun r ->
          if Result.is_error r.Serve.r_result then
            Alcotest.fail "flush refused an honest request")
        (Serve.flush plane);
      let q1, c1 = spent () and advance = Cycles.now p.Platform.clock - p0 in
      let what = Printf.sprintf "%d requests: " n in
      Alcotest.(check int) (what ^ "quota spend = platform advance") advance (q1 - q0);
      Alcotest.(check int) (what ^ "cycle counter = platform advance") advance
        (c1 - c0))
    [ 1; 8; 12; 40 ];
  Serve.destroy plane

(* Dispatch order pinned across interleaved traffic: two tenants with
   three sessions each on 4 cores, where every submission goes to a
   seeded-random session with a random size, so each tenant's stage holds
   its sessions interleaved.  Per flush: a digest of the (session, seq)
   reply order, the ledger's four sums and every core's clock.  A change
   to the dispatch order, the rotor blocks or the reply order moves at
   least one of the recorded values.  Serial + busy is the platform's
   advance, pinned on its own: it does not depend on how the work splits
   between the plane and the cores. *)
let test_flush_dispatch_order_known_answer () =
  let config =
    {
      Serve.default_config with
      Serve.max_queue = 256;
      sched = { Sched.default_config with Sched.cores = 4; batch = 16 };
    }
  in
  let p = Platform.create ~seed:7410L () in
  let plane =
    Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p config
  in
  let clients =
    Array.of_list
      (List.concat_map
         (fun k ->
           let tenant = Printf.sprintf "tenant-%d" k in
           let backend = Serve.add_tenant plane ~name:tenant (tenant_config ()) in
           List.init 3 (fun j ->
               let client =
                 extra_client p backend ~seed:(Int64.of_int (7411 + (10 * k) + j))
               in
               match Serve.handshake plane ~tenant (Serve.Client.hello client) with
               | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
               | Ok accept -> (
                   match Serve.Client.establish client accept with
                   | Error r ->
                       Alcotest.failf "establish failed: %a" Serve.pp_reject r
                   | Ok () -> client)))
         [ 0; 1 ])
  in
  let rng = Rng.create ~seed:7420L in
  let observed =
    List.init 3 (fun _ ->
        for _ = 1 to 40 do
          let client = clients.(Rng.int rng (Array.length clients)) in
          let data = Rng.bytes rng (16 + Rng.int rng 200) in
          admit plane (Serve.Client.request client ~ecall:(1 + Rng.int rng 2) data)
        done;
        let replies = Serve.flush plane in
        List.iter
          (fun r ->
            if Result.is_error r.Serve.r_result then
              Alcotest.fail "flush refused an honest request")
          replies;
        let order =
          String.concat ";"
            (List.map
               (fun r -> Printf.sprintf "%d:%d" r.Serve.r_session_id r.Serve.r_seq)
               replies)
        in
        let l = Serve.ledger plane in
        ( String.sub (Sha256.to_hex (Sha256.digest_string order)) 0 16,
          [ l.Serve.serial_cycles; l.busy_cycles; l.slowest_cycles; l.critical_cycles ],
          Array.to_list
            (Array.map (fun c -> c.Sched.cycles) (Serve.sched_stats plane).Sched.per_core) ))
  in
  Serve.destroy plane;
  let expected =
    [
      ("19bcc678b587cf42", 61423, [ 0; 61423; 16492; 16492 ], [ 16492; 15777; 16081; 16413 ]);
      ("daf04ee16d55bb31", 129727, [ 0; 129727; 34302; 34302 ], [ 34053; 33464; 33447; 34223 ]);
      ("2f8f913bfd8b5279", 197810, [ 0; 197810; 53258; 53258 ], [ 52413; 50501; 50657; 53179 ]);
    ]
  in
  List.iteri
    (fun i ((digest, sums, cores), (digest', advance, sums', cores')) ->
      let what = Printf.sprintf "flush %d: " (i + 1) in
      Alcotest.(check string) (what ^ "reply order") digest' digest;
      Alcotest.(check int) (what ^ "serial + busy") advance
        (List.nth sums 0 + List.nth sums 1);
      Alcotest.(check (list int)) (what ^ "ledger sums") sums' sums;
      Alcotest.(check (list int)) (what ^ "core clocks") cores' cores)
    (List.combine observed expected)

(* The slot limits: a 256-byte request ciphertext is admitted and its
   256-byte reply comes back whole; one byte more is refused at
   admission. *)
let test_slot_size_limits () =
  let _p, plane, _backend, client = build ~seed:7098L () in
  establish plane client;
  let full = Bytes.init Serve.slot_bytes (fun i -> Char.chr (97 + (i mod 26))) in
  Alcotest.(check int) "slot payload" 256 Serve.slot_bytes;
  (match Serve.Client.roundtrip plane client [ (2, full) ] with
  | [ Ok body ] ->
      Alcotest.(check bytes) "256-byte reply" (upper full) body
  | [ Error r ] -> Alcotest.failf "256-byte request failed: %a" Serve.pp_reject r
  | _ -> Alcotest.fail "expected one reply");
  expect_reject "unsupported"
    (Serve.submit plane
       (Serve.Client.request client ~ecall:1 (Bytes.make (Serve.slot_bytes + 1) 'x')));
  Serve.destroy plane

let suite =
  [
    Alcotest.test_case "roundtrip on all modes" `Quick test_roundtrip_modes;
    Alcotest.test_case "wrong tenant pin rejected" `Quick
      test_wrong_tenant_pin_rejected;
    Alcotest.test_case "baseline tenants refused" `Quick
      test_baseline_tenants_refused;
    Alcotest.test_case "unknown tenant" `Quick test_unknown_tenant;
    Alcotest.test_case "replayed nonce" `Quick test_replayed_nonce;
    Alcotest.test_case "spliced accept fails binding" `Quick
      test_spliced_accept_fails_binding;
    Alcotest.test_case "replayed accept fails binding" `Quick
      test_replayed_accept_fails_binding;
    Alcotest.test_case "garbage quote wire" `Quick test_garbage_quote_wire;
    Alcotest.test_case "key-share refusals are typed" `Quick
      test_key_share_refusals;
    Alcotest.test_case "a non-group hello costs the plane nothing" `Quick
      test_garbage_hello_costs_nothing;
    Alcotest.test_case "tampered envelope rejected" `Quick
      test_tampered_envelope_rejected;
    Alcotest.test_case "respliced header rejected" `Quick
      test_respliced_header_rejected;
    Alcotest.test_case "replay window" `Quick test_replay_window;
    Alcotest.test_case "replayed request rejected" `Quick
      test_replayed_request_rejected;
    Alcotest.test_case "unknown session" `Quick test_unknown_session;
    Alcotest.test_case "backpressure" `Quick test_backpressure;
    Alcotest.test_case "quota exhaustion and grant" `Quick
      test_quota_exhaustion_and_grant;
    Alcotest.test_case "tenant isolation" `Quick test_tenant_isolation;
    Alcotest.test_case "many requests ordered" `Quick test_many_requests_ordered;
    Alcotest.test_case "resize session (EDMM)" `Quick test_resize_session_edmm;
    Alcotest.test_case "state ecall reserved" `Quick test_state_ecall_reserved;
    Alcotest.test_case "transient fault absorbed" `Quick
      test_transient_fault_absorbed;
    Alcotest.test_case "transient fault in a handler re-opens its slot" `Quick
      test_transient_fault_in_handler;
    Alcotest.test_case "permanent fault typed" `Quick test_permanent_fault_typed;
    Alcotest.test_case "chaos: two tenants, two cores" `Slow
      test_chaos_two_tenants_two_cores;
    Alcotest.test_case "close session" `Quick test_close_session;
    Alcotest.test_case "session churn reuses state slots" `Quick
      test_session_churn_reuses_state_slots;
    Alcotest.test_case "nonce cache bounded" `Quick test_nonce_cache_bounded;
    Alcotest.test_case "nonce cache bounded in bytes" `Quick
      test_nonce_cache_bytes_bounded;
    Alcotest.test_case "an echo tenant builds no LLC slab or NPT leaf" `Quick
      test_echo_tenant_footprint;
    Alcotest.test_case "destroy owns tenant backends" `Quick
      test_destroy_owns_tenant_backends;
    Alcotest.test_case "sched stats read-only" `Quick test_sched_stats_read_only;
    Alcotest.test_case "reply splice rejected" `Quick test_reply_splice_rejected;
    Alcotest.test_case "ticket resume" `Quick test_ticket_resume;
    Alcotest.test_case "ticket tampered" `Quick test_ticket_tampered;
    Alcotest.test_case "ticket expired" `Quick test_ticket_expired;
    Alcotest.test_case "ticket replay rejected" `Quick test_ticket_replay_rejected;
    Alcotest.test_case "a resume replayed after eviction serves nobody" `Quick
      test_resume_replay_after_eviction;
    Alcotest.test_case "telemetry counters" `Quick test_telemetry_counters;
    Alcotest.test_case "client keys prepared once (allocation)" `Quick
      test_client_allocation;
    Alcotest.test_case "plane request path set up once (allocation)" `Quick
      test_plane_allocation;
    Alcotest.test_case "one-request flush set up once (allocation)" `Quick
      test_one_request_flush_allocation;
    Alcotest.test_case "a connect allocates what it keeps (allocation)"
      `Quick test_connect_allocation;
    QCheck_alcotest.to_alcotest spec_qcheck;
    Alcotest.test_case "arena hot tenant scales across cores" `Quick
      test_arena_hot_tenant_scales;
    Alcotest.test_case "arena preserves per-session reply order" `Quick
      test_arena_per_session_order;
    Alcotest.test_case "close session mid-stage drops arena slots" `Quick
      test_close_session_mid_stage;
    Alcotest.test_case "aborted flush drops what it staged" `Quick
      test_aborted_flush_drops_staged;
    Alcotest.test_case "high-water counters survive a plane rebuild" `Quick
      test_high_water_survives_rebuild;
    Alcotest.test_case "migration blob known answer" `Quick
      test_migration_blob_kat;
    Alcotest.test_case "channel frame known answer" `Quick
      test_channel_frame_kat;
    Alcotest.test_case "resumed frame known answer" `Quick
      test_resumed_frame_kat;
    Alcotest.test_case "ticket and session-opening known answer" `Quick
      test_ticket_kat;
    Alcotest.test_case "import closes sequence holes" `Quick test_import_closes_holes;
    Alcotest.test_case "malformed migration blob refused typed" `Quick
      test_malformed_blob_refused;
    Alcotest.test_case "ledger adds up to the platform clock" `Quick
      test_ledger_adds_up;
    Alcotest.test_case "flush dispatch order known answer" `Quick
      test_flush_dispatch_order_known_answer;
    Alcotest.test_case "marshalling fault fails only its ring" `Quick
      test_marshalling_fault_fails_its_ring;
    Alcotest.test_case "tenant quota includes ring marshalling" `Quick
      test_quota_includes_marshalling;
    Alcotest.test_case "256-byte request and reply fit a slot" `Quick
      test_slot_size_limits;
  ]
