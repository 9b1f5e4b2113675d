(* The typed attack corpus: every malicious-kmod move from the paper's
   threat model (Fig. 9 mapping attacks, forged EINIT, swap-blob
   rollback/splicing) thrown at the real monitor through the model
   checker's world, plus the serving plane's cross-tenant and handshake
   replay/splice probes.  Each attack must die with a *typed* refusal
   ([Monitor.Security_violation] / a [Serve.reject]) — never an escaped
   exception — and the isolation audit must be green afterwards. *)

open Hyperenclave
module World = Mc_world
module Alphabet = Mc_alphabet

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- monitor corpus, via the model checker's world --------------------- *)

let must_apply w tr =
  match World.apply w tr with
  | World.Applied -> ()
  | World.Refused msg ->
      Alcotest.failf "setup %s refused: %s" (Alphabet.to_string tr) msg
  | World.Crashed msg ->
      Alcotest.failf "setup %s crashed: %s" (Alphabet.to_string tr) msg

let assert_green ~what w =
  match World.oracle w with
  | [] -> ()
  | findings ->
      Alcotest.failf "invariants broken after %s: %s" what
        (String.concat "; " findings)

(* Apply one attack and demand the typed refusal + a green audit. *)
let expect_refusal w atk =
  let name = Alphabet.to_string atk in
  Alcotest.(check bool) (name ^ " guard holds") true (World.enabled w atk);
  (match World.apply w atk with
  | World.Refused _ -> ()
  | World.Applied -> Alcotest.failf "%s applied without a refusal" name
  | World.Crashed msg -> Alcotest.failf "%s crashed untyped: %s" name msg);
  assert_green ~what:name w

(* Each entry: one malicious-kmod sequence — legal warm-up transitions,
   then the attack.  The warm-ups are real hypercalls on the real
   monitor; only the final step is hostile. *)
let corpus =
  let open Alphabet in
  [
    ("EADD onto an already-mapped page (Fig. 9a)", [ Create 0; Add 0 ],
     Atk_double_add 0);
    ("EADD outside ELRANGE", [ Create 0 ], Atk_add_outside 0);
    ("EINIT with a garbage signature", [ Create 0 ], Atk_bad_sig 0);
    ( "EINIT: valid vendor signature, forged MRENCLAVE",
      [ Create 0; Add 0; Add 0; Add_tcs 0 ],
      Atk_forged_measure 0 );
    ( "marshalling buffer aimed at reserved memory",
      [ Create 0; Add 0; Add 0; Add_tcs 0 ],
      Atk_ms_reserved 0 );
    ( "marshalling buffer overlapping ELRANGE",
      [ Create 0; Add 0; Add 0; Add_tcs 0 ],
      Atk_ms_overlap 0 );
    ( "EENTER before EINIT",
      [ Create 0; Add 0; Add 0; Add_tcs 0 ],
      Atk_enter_uninit 0 );
    ( "EENTER a TCS left busy by an AEX",
      [ Create 0; Add 0; Add 0; Add_tcs 0; Init 0; Enter 0; Aex 0 ],
      Atk_busy_enter 0 );
    ( "EEXIT to a non-sanctioned address",
      [ Create 0; Add 0; Add 0; Add_tcs 0; Init 0; Enter 0 ],
      Atk_wrong_exit 0 );
    ( "EREMOVE while a thread is inside",
      [ Create 0; Add 0; Add 0; Add_tcs 0; Init 0; Enter 0 ],
      Atk_remove_running 0 );
  ]

let test_monitor_corpus () =
  List.iter
    (fun (what, setup, atk) ->
      let w = World.create World.default_config in
      List.iter (must_apply w) setup;
      expect_refusal w atk;
      (* The refusal must not have wedged the slot: the same attack is
         still refused, and legal progress still works where defined. *)
      if World.enabled w atk then expect_refusal w atk;
      assert_green ~what w)
    corpus

(* --- swap-store rollback and splicing ----------------------------------- *)

(* These corrupt state the monitor cannot see at attack time, so they
   apply silently; the typed refusal is demanded at swap-in.  From the
   poisoned state, search every legal continuation (bounded DFS on the
   live world) and require that (a) nothing crashes, (b) the audit is
   green at every reachable state — a poisoned blob never becomes
   resident — and (c) some continuation actually forces the swap-in and
   collects the typed "swap-in" refusal. *)
let find_swap_refusal w ~depth =
  let found = ref None in
  let rec go d =
    if d < depth && !found = None then begin
      let ck = World.checkpoint w in
      List.iter
        (fun tr ->
          if !found = None && (not (Alphabet.is_attack tr)) && World.enabled w tr
          then begin
            World.push_frame_log w;
            (match World.apply w tr with
            | World.Crashed msg ->
                Alcotest.failf "crash on %s after swap attack: %s"
                  (Alphabet.to_string tr) msg
            | World.Refused msg ->
                assert_green ~what:(Alphabet.to_string tr) w;
                if contains msg "swap-in" then found := Some msg
            | World.Applied ->
                assert_green ~what:(Alphabet.to_string tr) w;
                go (d + 1));
            World.pop_restore_frames w;
            World.rollback w ck
          end)
        (World.alphabet w)
    end
  in
  go 0;
  !found

(* Tiny EPC (3 frames for a 4-page enclave) so pages must cycle in and
   out, giving the attacker old blobs to roll back. *)
let pressure_config =
  {
    World.default_config with
    World.epc_frames = 3;
    data_pages = 1;
    dyn_pages = 0;
    modes = [| Sgx_types.GU |];
  }

let build_under_pressure w =
  List.iter (must_apply w)
    Alphabet.[ Create 0; Add 0; Add_tcs 0; Init 0; Enter 0 ]

(* Cycle pages until the attack's guard holds: every Swap_out seals a
   fresh blob version, every Touch loads one back, so the archive soon
   holds an older authentic blob for a currently-stored key. *)
let drive_until w atk ~max_cycles =
  let cycles = ref 0 in
  while (not (World.enabled w atk)) && !cycles < max_cycles do
    incr cycles;
    (* Touch first (swap the page back in, consuming the stored blob),
       then Swap_out (seal a fresh version): the cycle ends with a blob
       *in the store*, which is where the rollback guard looks. *)
    if World.enabled w (Alphabet.Touch 0) then must_apply w (Alphabet.Touch 0);
    if World.enabled w Alphabet.Swap_out then must_apply w Alphabet.Swap_out
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%s reachable within %d swap cycles"
       (Alphabet.to_string atk) max_cycles)
    true
    (World.enabled w atk)

let test_swap_replay () =
  let w = World.create pressure_config in
  build_under_pressure w;
  drive_until w Alphabet.Atk_swap_replay ~max_cycles:16;
  must_apply w Alphabet.Atk_swap_replay;
  (* Silent corruption: store now holds a stale blob, audit still green
     (nothing resident yet). *)
  assert_green ~what:"atk_swap_replay (pre-swap-in)" w;
  match find_swap_refusal w ~depth:4 with
  | Some msg ->
      Alcotest.(check bool)
        (Printf.sprintf "rollback named in the refusal: %s" msg)
        true
        (contains msg "stale" || contains msg "integrity")
  | None -> Alcotest.fail "no continuation forced the stale blob's swap-in"

let test_swap_splice () =
  (* Two enclaves under shared EPC pressure; the attack serves enclave
     A's sealed page for one of enclave B's keys. *)
  let cfg =
    {
      World.default_config with
      World.epc_frames = 5;
      data_pages = 1;
      dyn_pages = 0;
    }
  in
  let w = World.create cfg in
  List.iter (must_apply w)
    Alphabet.
      [ Create 0; Add 0; Add_tcs 0; Init 0; Create 1; Add 1; Add_tcs 1; Init 1 ];
  drive_until w Alphabet.Atk_swap_splice ~max_cycles:16;
  must_apply w Alphabet.Atk_swap_splice;
  assert_green ~what:"atk_swap_splice (pre-swap-in)" w;
  match find_swap_refusal w ~depth:4 with
  | Some _ -> ()
  | None -> Alcotest.fail "no continuation forced the spliced blob's swap-in"

(* --- serving-plane probes ----------------------------------------------- *)

let echo_handlers = [ (1, fun _env input -> input) ]

let golden_of (p : Platform.t) =
  Verifier.golden_of_boot_log
    ~ek_public:(Tpm.ek_public p.Platform.tpm)
    (Monitor.boot_log p.Platform.monitor)

let tenant_config () =
  {
    (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
    Backend.handlers = echo_handlers;
  }

let client_for p ~identity ~seed =
  Serve.Client.create
    ~rng:(Rng.create ~seed)
    ~golden:(golden_of p)
    ~policy:
      {
        Verifier.expected_mrenclave = Some identity;
        expected_mrsigner = None;
        allow_debug = false;
      }
    ~expected_tenant:identity ()

let two_tenant_plane () =
  let p = Platform.create ~seed:9100L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let b1 = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
  let b2 = Serve.add_tenant plane ~name:"globex" (tenant_config ()) in
  let id b =
    match b.Backend.identity with Some i -> i | None -> Bytes.empty
  in
  let c1 = client_for p ~identity:(id b1) ~seed:9101L in
  let c2 = client_for p ~identity:(id b2) ~seed:9102L in
  (plane, c1, c2)

let establish plane ~tenant client =
  match Serve.handshake plane ~tenant (Serve.Client.hello client) with
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  | Ok accept -> (
      match Serve.Client.establish client accept with
      | Error r -> Alcotest.failf "establish failed: %a" Serve.pp_reject r
      | Ok () -> accept)

let expect_reject expected = function
  | Ok _ -> Alcotest.failf "expected %s rejection" expected
  | Error r ->
      Alcotest.(check string) "reject kind" expected (Serve.reject_name r)

let admit plane req =
  match Serve.submit plane req with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r

(* A reply as its client reads it: the body, or the reject's label. *)
let read_as client reply =
  Result.map_error Serve.reject_name
    (Result.map Bytes.to_string (Serve.Client.read_reply client reply))

let test_serve_cross_tenant_probe () =
  let plane, c1, c2 = two_tenant_plane () in
  ignore (establish plane ~tenant:"acme" c1);
  ignore (establish plane ~tenant:"globex" c2);
  (* Steal tenant globex's sealed frame and aim it at tenant acme's
     session: the derived AAD binds (session, seq, ecall), so acme's
     enclave refuses it before any plaintext exists. *)
  let stolen = Serve.Client.request c2 ~ecall:1 (Bytes.of_string "secret") in
  admit plane { stolen with Serve.session_id = Serve.Client.session_id c1 };
  (* The honest owner can still use the very same frame, in that flush. *)
  admit plane stolen;
  (match Serve.flush plane with
  | [ probe; honest ] ->
      Alcotest.(check (result string string)) "probe" (Error "bad-auth")
        (read_as c1 probe);
      Alcotest.(check (result string string)) "owner" (Ok "secret")
        (read_as c2 honest)
  | replies -> Alcotest.failf "expected 2 replies, got %d" (List.length replies));
  Serve.destroy plane

(* A plane whose one tenant records every request its handler runs. *)
let recording_plane ~seed =
  let p = Platform.create ~seed () in
  let plane =
    Serve.create_node ~platform:p
    @@ Serve.Node_config.v ~platform:p Serve.default_config
  in
  let ran = ref [] in
  let backend =
    Serve.add_tenant plane ~name:"acme"
      {
        (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
        Backend.handlers =
          [ (1, fun _env input -> ran := Bytes.to_string input :: !ran; input) ];
      }
  in
  let client =
    client_for p ~identity:(Option.get backend.Backend.identity)
      ~seed:(Int64.succ seed)
  in
  ignore (establish plane ~tenant:"acme" client);
  (plane, client, ran)

let test_serve_request_replay () =
  (* Replaying the identical authenticated request, in its own flush or a
     later one, is a refused sequence number: not a crash and not a
     double execution. *)
  let plane, c1, ran = recording_plane ~seed:9103L in
  let req = Serve.Client.request c1 ~ecall:1 (Bytes.of_string "once") in
  admit plane req;
  admit plane req;
  Alcotest.(check (list (result string string))) "first flush"
    [ Ok "once"; Error "bad-sequence" ]
    (List.map (read_as c1) (Serve.flush plane));
  admit plane req;
  Alcotest.(check (list (result string string))) "later flush"
    [ Error "bad-sequence" ]
    (List.map (read_as c1) (Serve.flush plane));
  Alcotest.(check (list string)) "the handler ran once" [ "once" ] !ran;
  Serve.destroy plane

(* The host flips a ciphertext bit after admission.  The stage keeps the
   submitted request without copying it, so the host can XOR byte 10 of
   an admitted frame with 0x08, turning "10" into "90" under CTR.  The
   enclave checks the tag of what it runs: the tampered request is
   refused and its handler never runs, and the honest request in the
   same flush serves. *)
let test_serve_flip_after_admission () =
  let plane, client, ran = recording_plane ~seed:9104L in
  let req = Serve.Client.request client ~ecall:1 (Bytes.of_string "pay alice 10") in
  admit plane req;
  Bytes.set req.Serve.frame 10
    (Char.chr (Char.code (Bytes.get req.Serve.frame 10) lxor 0x08));
  admit plane (Serve.Client.request client ~ecall:1 (Bytes.of_string "pay bob 5"));
  Alcotest.(check (list (result string string))) "replies"
    [ Error "bad-auth"; Ok "pay bob 5" ]
    (List.map (read_as client) (Serve.flush plane));
  Alcotest.(check (list string)) "handler runs" [ "pay bob 5" ] !ran;
  Serve.destroy plane

let test_serve_handshake_replay () =
  let plane, c1, _ = two_tenant_plane () in
  let hello = Serve.Client.hello c1 in
  (match Serve.handshake plane ~tenant:"acme" hello with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "first handshake rejected: %a" Serve.pp_reject r);
  expect_reject "replayed-nonce" (Serve.handshake plane ~tenant:"acme" hello);
  Serve.destroy plane

let test_serve_handshake_splice () =
  (* Splice: answer tenant acme's client with the key share from tenant
     globex's handshake.  The transcript binding in the quote must
     catch the swap. *)
  let plane, c1, c2 = two_tenant_plane () in
  let accept2 =
    match Serve.handshake plane ~tenant:"globex" (Serve.Client.hello c2) with
    | Ok a -> a
    | Error r -> Alcotest.failf "globex handshake rejected: %a" Serve.pp_reject r
  in
  (match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello c1) with
  | Error r -> Alcotest.failf "acme handshake rejected: %a" Serve.pp_reject r
  | Ok accept1 ->
      expect_reject "channel-binding"
        (Serve.Client.establish c1
           { accept1 with Serve.server_kx = accept2.Serve.server_kx }));
  Serve.destroy plane

let test_serve_ecall_admission () =
  (* A client may name only its tenant's own handlers.  The reserved
     state ECALLs read and write every session's state slot, and a
     malformed or unregistered call would fail the whole ring shard it
     lands in — here the neighbour's, on a 1-core plane. *)
  let p = Platform.create ~seed:9110L () in
  let config =
    {
      Serve.default_config with
      Serve.sched = { Serve.default_config.Serve.sched with Sched.cores = 1 };
    }
  in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p config in
  let backend = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
  let identity = Option.get backend.Backend.identity in
  let neighbour = client_for p ~identity ~seed:9111L in
  let prober = client_for p ~identity ~seed:9112L in
  ignore (establish plane ~tenant:"acme" neighbour);
  ignore (establish plane ~tenant:"acme" prober);
  (* The neighbour owns state slot 0 and has committed a page of it. *)
  (match Serve.resize_session plane ~session:(Serve.Client.session_id neighbour) ~pages:1 with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "resize rejected: %a" Serve.pp_reject r);
  let submit client ~ecall data =
    Serve.submit plane (Serve.Client.request client ~ecall data)
  in
  (match submit neighbour ~ecall:1 (Bytes.of_string "neighbour") with
  | Ok () -> ()
  | Error r -> Alcotest.failf "neighbour submit rejected: %a" Serve.pp_reject r);
  let range = Bytes.create 16 in
  Bytes.set_int64_le range 0 0L;
  Bytes.set_int64_le range 8 16L;
  List.iter
    (fun (what, ecall, data) ->
      match submit prober ~ecall data with
      | Ok () -> Alcotest.failf "%s admitted" what
      | Error r ->
          Alcotest.(check string) what "unsupported" (Serve.reject_name r))
    [
      ("state read of slot 0", 0x5e56, range);
      ("malformed state commit", Serve.state_ecall, Bytes.of_string "abc");
      ("unregistered ECALL", 99, Bytes.of_string "x");
    ];
  (* The refusals leave holes in the prober's sequence numbers, which the
     enclave's replay window tolerates: its next request serves. *)
  (match submit prober ~ecall:1 (Bytes.of_string "prober") with
  | Ok () -> ()
  | Error r -> Alcotest.failf "prober submit rejected: %a" Serve.pp_reject r);
  let replies = Serve.flush plane in
  List.iter
    (fun (client, expected) ->
      let mine = Serve.Client.session_id client in
      match List.find_opt (fun r -> r.Serve.r_session_id = mine) replies with
      | None -> Alcotest.failf "no reply for %s" expected
      | Some reply -> (
          match Serve.Client.read_reply client reply with
          | Ok body -> Alcotest.(check string) "served" expected (Bytes.to_string body)
          | Error r -> Alcotest.failf "%s failed: %a" expected Serve.pp_reject r))
    [ (neighbour, "neighbour"); (prober, "prober") ];
  Serve.destroy plane

(* The host reads ring-slot plaintext.  The marshalling ring is
   untrusted shared memory, so while one sealed request is submitted and
   flushed, no frame written outside the EPC (Phys_mem's write observer
   lists them) may hold the request's or the reply's plaintext: the
   in-enclave ring worker opens and seals the slots itself.  Any 16-byte
   window counts, as a plaintext may straddle a page boundary. *)
let test_serve_ring_plaintext () =
  let p = Platform.create ~seed:9130L () in
  let plane =
    Serve.create_node ~platform:p
    @@ Serve.Node_config.v ~platform:p Serve.default_config
  in
  let upper b = Bytes.of_string (String.uppercase_ascii (Bytes.to_string b)) in
  let backend =
    Serve.add_tenant plane ~name:"acme"
      {
        (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
        Backend.handlers = [ (1, fun _env input -> upper input) ];
      }
  in
  let client =
    client_for p ~identity:(Option.get backend.Backend.identity) ~seed:9131L
  in
  ignore (establish plane ~tenant:"acme" client);
  let request = "attack twin: a request the host must never read in the clear" in
  let reply = String.uppercase_ascii request in
  let mem = p.Platform.mem in
  let written = Hashtbl.create 64 in
  Hw.Phys_mem.set_write_observer mem
    (Some (fun frame -> Hashtbl.replace written frame ()));
  let replies =
    Fun.protect
      ~finally:(fun () -> Hw.Phys_mem.set_write_observer mem None)
      (fun () ->
        match
          Serve.submit plane
            (Serve.Client.request client ~ecall:1 (Bytes.of_string request))
        with
        | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r
        | Ok () -> Serve.flush plane)
  in
  (match replies with
  | [ r ] -> (
      match Serve.Client.read_reply client r with
      | Ok body -> Alcotest.(check string) "served" reply (Bytes.to_string body)
      | Error r -> Alcotest.failf "reply rejected: %a" Serve.pp_reject r)
  | _ -> Alcotest.fail "expected one reply");
  let epc = Monitor.epc p.Platform.monitor in
  let shared =
    Hashtbl.fold
      (fun frame () acc ->
        if Epc.in_pool epc frame then acc
        else Bytes.to_string (Hw.Phys_mem.read_page mem ~frame) :: acc)
      written []
  in
  Alcotest.(check bool) "the round wrote shared frames" true (shared <> []);
  let leaks text =
    List.exists
      (fun page ->
        List.exists
          (fun i -> contains page (String.sub text i 16))
          (List.init (String.length text - 15) Fun.id))
      shared
  in
  Alcotest.(check bool) "request plaintext in shared memory" false (leaks request);
  Alcotest.(check bool) "reply plaintext in shared memory" false (leaks reply);
  Serve.destroy plane

(* The label of the transcript a plane's tenant quotes in a handshake. *)
let sigma_label = "hyperenclave-serve-sigma:"

let test_serve_forged_tenant_identity () =
  (* The host answers a handshake with a genuine quote from enclave A
     over a transcript that names enclave B.  A client with no MRENCLAVE
     policy and no tenant pin must still see that the claimed tenant is
     not the enclave that quoted. *)
  let p = Platform.create ~seed:9120L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let a = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
  let b =
    Serve.add_tenant plane ~name:"globex"
      { (tenant_config ()) with Backend.code_seed = Some "globex" }
  in
  let a_id = Option.get a.Backend.identity in
  let b_id = Option.get b.Backend.identity in
  Alcotest.(check bool) "distinct enclaves" false (Bytes.equal a_id b_id);
  let client =
    Serve.Client.create ~rng:(Rng.create ~seed:9121L) ~golden:(golden_of p)
      ~policy:
        { Verifier.expected_mrenclave = None; expected_mrsigner = None; allow_debug = false }
      ()
  in
  let hello = Serve.Client.hello client in
  let _secret, server_kx = Kx.generate (Rng.create ~seed:9122L) in
  let report_data =
    Sigma.transcript ~label:sigma_label
      [ hello.Serve.nonce; hello.Serve.client_kx; server_kx; b_id ]
  in
  let quote =
    Urts.gen_quote (Option.get a.Backend.urts) ~report_data
  in
  let accept =
    {
      Serve.session_id = 0;
      node_id = 0;
      server_kx;
      quote_wire = Quote_wire.encode quote;
      tenant_identity = b_id;
    }
  in
  (match Serve.Client.establish client accept with
  | Error (Serve.Handshake_failed (Verifier.Policy_violation _)) -> ()
  | Ok () -> Alcotest.fail "forged tenant identity accepted"
  | Error r -> Alcotest.failf "expected a policy violation, got %a" Serve.pp_reject r);
  Serve.destroy plane

let test_serve_host_key_share () =
  (* A host with TPM access (the untrusted OS has it) answers a client's
     hello itself, with its own key share and a quote for a key pair of
     its own: a TPM quote over the quoted selection, the honest boot log
     plus an event naming its key at PCR 16, which that quote does not
     cover, and a report naming the tenant's enclave and the transcript
     over the host's share, signed with its key.  The client pins no
     hapk, like every single-node client. *)
  let p = Platform.create ~seed:9130L () in
  let plane =
    Serve.create_node ~platform:p
    @@ Serve.Node_config.v ~platform:p Serve.default_config
  in
  let backend = Serve.add_tenant plane ~name:"acme" (tenant_config ()) in
  let identity = Option.get backend.Backend.identity in
  let client = client_for p ~identity ~seed:9131L in
  let hello = Serve.Client.hello client in
  let _secret, server_kx = Kx.generate (Rng.create ~seed:9132L) in
  let host_private, host_hapk =
    Crypto.Signature.generate (Rng.create ~seed:9133L)
  in
  let report =
    {
      (Urts.gen_quote (Option.get backend.Backend.urts) ~report_data:Bytes.empty)
        .Monitor.report
      with
      Sgx_types.report_data =
        Sgx_types.pad_report_data
          (Sigma.transcript ~label:sigma_label
             [ hello.Serve.nonce; hello.Serve.client_kx; server_kx; identity ]);
    }
  in
  let quote =
    {
      Monitor.report;
      ems =
        Crypto.Signature.sign host_private (Sgx_types.ems_body report);
      hapk = host_hapk;
      tpm_quote =
        Tpm.quote p.Platform.tpm ~nonce:hello.Serve.nonce
          ~pcr_selection:Monitor.quote_pcr_selection;
      events =
        Monitor.boot_log p.Platform.monitor
        @ [
            {
              Monitor.pcr_index = 16;
              label = "hapk";
              measurement = Sha256.digest_bytes host_hapk;
            };
          ];
    }
  in
  let accept =
    {
      Serve.session_id = 0;
      node_id = 0;
      server_kx;
      quote_wire = Quote_wire.encode quote;
      tenant_identity = identity;
    }
  in
  (match Serve.Client.establish client accept with
  | Error (Serve.Handshake_failed Verifier.Event_log_mismatch) -> ()
  | Ok () -> Alcotest.fail "host key share accepted"
  | Error r ->
      Alcotest.failf "expected an event-log refusal, got %a" Serve.pp_reject r);
  Serve.destroy plane

let suite =
  [
    Alcotest.test_case "malicious-kmod corpus (typed refusals)" `Quick
      test_monitor_corpus;
    Alcotest.test_case "EWB blob rollback refused at swap-in" `Quick
      test_swap_replay;
    Alcotest.test_case "EWB blob splice refused at swap-in" `Quick
      test_swap_splice;
    Alcotest.test_case "serve: cross-tenant envelope probe" `Quick
      test_serve_cross_tenant_probe;
    Alcotest.test_case "serve: request replay" `Quick test_serve_request_replay;
    Alcotest.test_case "serve: ciphertext flip after admission" `Quick
      test_serve_flip_after_admission;
    Alcotest.test_case "serve: handshake replay" `Quick
      test_serve_handshake_replay;
    Alcotest.test_case "serve: handshake splice" `Quick
      test_serve_handshake_splice;
    Alcotest.test_case "serve: reserved and unknown ECALLs refused at admission"
      `Quick test_serve_ecall_admission;
    Alcotest.test_case "serve: forged tenant identity" `Quick
      test_serve_forged_tenant_identity;
    Alcotest.test_case "serve: host key share under a forged quote" `Quick
      test_serve_host_key_share;
    Alcotest.test_case "serve: host reads ring-slot plaintext" `Quick
      test_serve_ring_plaintext;
  ]
