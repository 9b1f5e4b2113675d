(* Fleet-scale serving: the multi-monitor cluster, the deterministic
   network, the consistent-hash LB tier, and — the headline — live
   enclave migration with cross-monitor re-attestation.  The negative
   paths mirror the attack corpus discipline: every tampered, replayed
   or mis-routed migration message must die with a typed refusal while
   the monitor invariants stay green on every live node. *)

open Hyperenclave

let upper input = Bytes.of_string (String.uppercase_ascii (Bytes.to_string input))

let tenant_gen () =
  {
    (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
    Backend.handlers =
      [ (1, fun _env input -> input); (2, fun _env input -> upper input) ];
  }

let build ?(nodes = 4) ?(seed = 9000L) ?(net = Netsim.default_config) () =
  let cl =
    Cluster.create { Cluster.default_config with Cluster.nodes; seed; net }
  in
  let owner = Cluster.add_tenant cl ~name:"acme" tenant_gen in
  (cl, owner)

let connect ?(seed = 1L) ?(tenant = "acme") cl =
  match Cluster.Client.connect cl ~rng:(Rng.create ~seed) ~tenant () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect failed: %a" Cluster.pp_error e

let call_ok c reqs =
  match Cluster.Client.call c reqs with
  | Error e -> Alcotest.failf "call failed: %a" Cluster.pp_error e
  | Ok replies ->
      List.map
        (function
          | Ok b -> b
          | Error r -> Alcotest.failf "request rejected: %a" Serve.pp_reject r)
        replies

let assert_green cl =
  List.iter
    (fun (node, findings) ->
      Alcotest.(check int)
        (Printf.sprintf "node %d invariants green" node)
        0
        (List.length findings))
    (Cluster.check cl)

let other cl n =
  match List.find_opt (fun m -> Cluster.Node.id m <> n) (Cluster.nodes cl) with
  | Some m -> Cluster.Node.id m
  | None -> Alcotest.fail "need at least two nodes"

let migrate_ok cl ~tenant ~dst =
  match Cluster.migrate cl ~tenant ~dst with
  | Ok n -> n
  | Error e -> Alcotest.failf "migrate failed: %a" Cluster.pp_error e

(* A plane-level client pinned to node [n]'s anchor, for driving a
   plane's handshake directly. *)
let serve_client cl n ~seed =
  let a = Cluster.anchor cl n in
  Serve.Client.create ~rng:(Rng.create ~seed) ~golden:a.Cluster.a_golden
    ~policy:
      { Verifier.expected_mrenclave = None; expected_mrsigner = None;
        allow_debug = false }
    ~expected_hapk:a.Cluster.a_hapk ()

(* ---------------------------------------------------------------- *)

(* The headline demo: an enclave serving an active AEAD session is
   sealed on its owner, shipped across the simulated network,
   re-attested under the destination monitor's hapk and resumed — the
   client keeps calling through the cutover on the same session, with
   the same keys and sequence cursor, and both monitors stay green. *)
let test_live_migration () =
  let cl, src = build () in
  let c = connect cl in
  Alcotest.(check int) "affinity = owner" src (Cluster.Client.node_id c);
  let sid = Cluster.Client.session_id c in
  let r1 = call_ok c [ (2, Bytes.of_string "before") ] in
  Alcotest.(check string) "pre-move reply" "BEFORE"
    (Bytes.to_string (List.hd r1));
  let dst = other cl src in
  let moved = migrate_ok cl ~tenant:"acme" ~dst in
  Alcotest.(check bool) "session moved" true (moved >= 1);
  Alcotest.(check int) "placement cut over" dst (Cluster.owner cl ~tenant:"acme");
  (* The client still believes it talks to [src]: the next batch hits
     the stale source, gets the typed forward, and completes on the
     destination without a new handshake. *)
  let r2 = call_ok c [ (2, Bytes.of_string "after"); (1, Bytes.of_string "raw") ] in
  Alcotest.(check string) "post-move reply" "AFTER" (Bytes.to_string (List.nth r2 0));
  Alcotest.(check string) "post-move echo" "raw" (Bytes.to_string (List.nth r2 1));
  Alcotest.(check int) "chased to destination" dst (Cluster.Client.node_id c);
  Alcotest.(check int) "session id survives" sid (Cluster.Client.session_id c);
  let s = Cluster.stats cl in
  Alcotest.(check int) "one migration" 1 s.Cluster.migrations;
  Alcotest.(check bool) "pause accounted" true (s.Cluster.max_pause > 0);
  assert_green cl;
  Cluster.destroy cl

(* Migrate back home: forwarding addresses are cleared on import, so a
   round trip is legal and the client chases both hops. *)
let test_migrate_back () =
  let cl, src = build () in
  let c = connect cl in
  let dst = other cl src in
  ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
  let _ = call_ok c [ (1, Bytes.of_string "hop1") ] in
  ignore (migrate_ok cl ~tenant:"acme" ~dst:src : int);
  let r = call_ok c [ (2, Bytes.of_string "home") ] in
  Alcotest.(check string) "round trip" "HOME" (Bytes.to_string (List.hd r));
  Alcotest.(check int) "back on the source" src (Cluster.Client.node_id c);
  assert_green cl;
  Cluster.destroy cl

(* ---------------------------------------------------------------- *)
(* Negative paths: the migration protocol under attack.              *)

let offer_ok cl ~src ~dst =
  match Cluster.Migrate.offer cl ~tenant:"acme" ~src ~dst with
  | Ok o -> o
  | Error e -> Alcotest.failf "offer failed: %a" Cluster.pp_error e

let seal_ok cl o =
  match Cluster.Migrate.seal cl o with
  | Ok p -> p
  | Error e -> Alcotest.failf "seal failed: %a" Cluster.pp_error e

(* The source hands [seal] an earlier offer's quote with a new offer's
   nonce and share: the quote verifies against the destination's anchor,
   but its report answers the earlier offer.  Nothing is exported. *)
let test_replayed_offer_quote () =
  let cl, src = build () in
  let dst = other cl src in
  let earlier = offer_ok cl ~src ~dst in
  let fresh = offer_ok cl ~src ~dst in
  (match
     Cluster.Migrate.seal cl
       { fresh with Cluster.Migrate.o_quote = earlier.Cluster.Migrate.o_quote }
   with
  | Error Cluster.Binding_mismatch -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "replayed offer quote sealed");
  Alcotest.(check int) "placement unchanged" src (Cluster.owner cl ~tenant:"acme");
  ignore (seal_ok cl fresh : Cluster.Migrate.package);
  assert_green cl;
  Cluster.destroy cl

(* The refusals of the migration's attested key exchange that no other
   test reaches, as the fleet names them.  A lie in the offer refuses
   the seal: a quote wire that does not decode, a sibling node's quote
   (another TPM than the destination's pinned EK), and a genuine
   destination quote over a share that is no group element.  A package
   share that is no group element refuses the install and burns the
   offer, so the genuine package is refused too. *)
let test_exchange_refusals () =
  let cl, src = build () in
  let dst = other cl src in
  let third =
    match
      List.find_opt
        (fun n -> not (List.mem (Cluster.Node.id n) [ src; dst ]))
        (Cluster.nodes cl)
    with
    | Some n -> Cluster.Node.id n
    | None -> Alcotest.fail "need three nodes"
  in
  let non_group = Bytes.make 32 '\000' in
  let garbage = Bytes.of_string "junk" in
  let undecodable =
    match Quote_wire.decode garbage with
    | Result.Error m -> m
    | Result.Ok _ -> Alcotest.fail "garbage decoded"
  in
  let error = Alcotest.testable Cluster.pp_error ( = ) in
  let refused what expected = function
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e -> Alcotest.check error what expected e
  in
  List.iter
    (fun (what, expected, lie) ->
      refused what expected (Cluster.Migrate.seal cl (lie (offer_ok cl ~src ~dst))))
    [
      ( "seal: garbage offer quote",
        Cluster.Blob_malformed ("offer quote: " ^ undecodable),
        fun o -> { o with Cluster.Migrate.o_quote = garbage } );
      ( "seal: a sibling node's offer quote",
        Cluster.Attest_failed Verifier.Bad_tpm_signature,
        fun o ->
          {
            o with
            Cluster.Migrate.o_quote =
              (offer_ok cl ~src ~dst:third).Cluster.Migrate.o_quote;
          } );
      ( "seal: destination quote over a non-group share",
        Cluster.Binding_mismatch,
        fun o ->
          let report_data =
            Sigma.transcript ~label:"cluster-migrate-offer:"
              [
                Bytes.of_string "acme";
                Bytes.of_string (string_of_int src);
                Bytes.of_string (string_of_int dst);
                o.Cluster.Migrate.o_nonce;
                non_group;
              ]
          in
          {
            o with
            Cluster.Migrate.o_kx = non_group;
            o_quote =
              Quote_wire.encode
                (Serve.node_quote (Cluster.plane cl dst) ~report_data);
          } );
    ];
  let p = seal_ok cl (offer_ok cl ~src ~dst) in
  refused "install: non-group package share" Cluster.Binding_mismatch
    (Cluster.Migrate.install cl { p with Cluster.Migrate.p_kx = non_group });
  refused "install: the genuine package after" Cluster.Unknown_offer
    (Cluster.Migrate.install cl p);
  Alcotest.(check int) "placement unchanged" src (Cluster.owner cl ~tenant:"acme");
  assert_green cl;
  Cluster.destroy cl

(* An offer whose share is no group element is refused right after its
   quote checks out, before the source exports the tenant: the source's
   export counter does not move. *)
let test_refused_seal_exports_nothing () =
  let cl, src = build ~nodes:2 () in
  let dst = other cl src in
  let tel =
    Monitor.telemetry
      (Cluster.Node.platform (Cluster.node cl src)).Platform.monitor
  in
  let exports () = Telemetry.counter tel "serve.migrate.export" in
  let o = offer_ok cl ~src ~dst in
  let non_group = Bytes.make 32 '\000' in
  let report_data =
    Sigma.transcript ~label:"cluster-migrate-offer:"
      [
        Bytes.of_string "acme";
        Bytes.of_string (string_of_int src);
        Bytes.of_string (string_of_int dst);
        o.Cluster.Migrate.o_nonce;
        non_group;
      ]
  in
  let lie =
    {
      o with
      Cluster.Migrate.o_kx = non_group;
      o_quote =
        Quote_wire.encode
          (Serve.node_quote (Cluster.plane cl dst) ~report_data);
    }
  in
  let before = exports () in
  (match Cluster.Migrate.seal cl lie with
  | Error Cluster.Binding_mismatch -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "non-group offer share sealed");
  Alcotest.(check int) "serve.migrate.export unchanged" before (exports ());
  ignore (seal_ok cl o : Cluster.Migrate.package);
  Alcotest.(check int) "the honest seal exports once" (before + 1) (exports ());
  Cluster.destroy cl

(* The monitor takes its TPM quote once, at launch.  With a permanent
   fault armed at the next ["tpm.quote"] crossing after boot, eight
   handshakes on one plane and four migration offers to the same node
   run no TPM command, and every quote they carry holds the same
   platform quote. *)
let test_one_tpm_quote_per_boot () =
  let cl, owner = build ~nodes:2 () in
  let src = other cl owner in
  let decode wire =
    match Quote_wire.decode wire with
    | Result.Ok q -> q.Monitor.tpm_quote
    | Result.Error m -> Alcotest.failf "quote did not decode: %s" m
  in
  let handshakes, offers, hits =
    Fun.protect ~finally:Fault.clear (fun () ->
        Fault.install
          [ { Fault.site = "tpm.quote"; nth = 1; kind = Fault.Permanent } ];
        let handshakes =
          List.init 8 (fun i ->
              let client =
                serve_client cl owner ~seed:(Int64.of_int (9200 + i))
              in
              match
                Serve.handshake (Cluster.plane cl owner) ~tenant:"acme"
                  (Serve.Client.hello client)
              with
              | Ok accept -> decode accept.Serve.quote_wire
              | Error r ->
                  Alcotest.failf "handshake %d rejected: %a" i Serve.pp_reject r)
        in
        let offers =
          List.init 4 (fun _ ->
              decode (offer_ok cl ~src ~dst:owner).Cluster.Migrate.o_quote)
        in
        (handshakes, offers, Fault.hits "tpm.quote"))
  in
  Alcotest.(check int) "no TPM quote after boot" 0 hits;
  let first = List.hd handshakes in
  List.iteri
    (fun i q ->
      Alcotest.(check bool)
        (Printf.sprintf "quote %d carries the boot's TPM quote" i)
        true (q = first))
    (handshakes @ offers);
  Cluster.destroy cl

(* One offer's quote wire and the package sealed against it, pinned
   byte for byte: the quote's report answers the offer transcript, and
   the blob is sealed under the transport key both nodes derive, so
   nodes of different builds keep migrating to each other across a
   rolling upgrade.  Nonce, ciphertext and tag are pinned as the one
   [Authenc.seal] blob they spell.  The pinned package then installs. *)
let test_migration_transport_kat () =
  let cl, src = build () in
  let dst = other cl src in
  let o = offer_ok cl ~src ~dst in
  let p = seal_ok cl o in
  let pinned what ~len ~sha bytes =
    Alcotest.(check int) (what ^ " length") len (Bytes.length bytes);
    Alcotest.(check string) (what ^ " sha256") sha
      (Sha256.to_hex (Sha256.digest_bytes bytes))
  in
  pinned "offer quote" ~len:928
    ~sha:"3c370bfc7d52a2dfd3027bb11c50926e2a71c5db80e2355ef0b8c7d031379085"
    o.Cluster.Migrate.o_quote;
  pinned "package iv ‖ blob ‖ tag" ~len:119
    ~sha:"69e4a6c4eed02242eb65477a02397d58ce06efbb13712d13a563c9bd8ada36fe"
    (Bytes.concat Bytes.empty
       Cluster.Migrate.[ p.p_iv; p.p_blob; p.p_tag ]);
  (match Cluster.Migrate.install cl p with
  | Ok n -> Alcotest.(check int) "no session to install" 0 n
  | Error e -> Alcotest.failf "install failed: %a" Cluster.pp_error e);
  Cluster.destroy cl

(* Sealed blob tampered in transit: one flipped ciphertext bit must
   surface as a transport authentication failure, and nothing may have
   been installed. *)
let test_blob_tamper () =
  let cl, src = build () in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "live") ] in
  let dst = other cl src in
  let o = offer_ok cl ~src ~dst in
  let p = seal_ok cl o in
  let blob = Bytes.copy p.Cluster.Migrate.p_blob in
  let i = Bytes.length blob / 2 in
  Bytes.set_uint8 blob i (Bytes.get_uint8 blob i lxor 0x40);
  (match Cluster.Migrate.install cl { p with Cluster.Migrate.p_blob = blob } with
  | Error (Cluster.Transport_auth | Cluster.Blob_malformed _) -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "tampered blob accepted");
  (* The offer is burnt even by the failed install; the genuine package
     must now be refused too — no second chance for an attacker holding
     the real bytes. *)
  (match Cluster.Migrate.install cl p with
  | Error Cluster.Unknown_offer -> ()
  | Error e -> Alcotest.failf "wrong refusal on replay: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "burnt offer accepted");
  (* Tenant never moved: the client still works against the source. *)
  let r = call_ok c [ (2, Bytes.of_string "still here") ] in
  Alcotest.(check string) "source still serves" "STILL HERE"
    (Bytes.to_string (List.hd r));
  Alcotest.(check int) "placement unchanged" src (Cluster.owner cl ~tenant:"acme");
  assert_green cl;
  Cluster.destroy cl

(* Replay and mis-routing: a package is bound to the one offer that
   produced it.  Install twice → the second is refused; redirect the
   package to a node that never offered → refused. *)
let test_replay_and_misroute () =
  let cl, src = build () in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "x") ] in
  let dst = other cl src in
  let o = offer_ok cl ~src ~dst in
  let p = seal_ok cl o in
  (* Mis-route first (the offer must survive this): aim the package at
     a third node.  Its blob was sealed for [dst], but the third node has
     no pending offer for this nonce. *)
  let third =
    match
      List.find_opt
        (fun n ->
          let id = Cluster.Node.id n in
          id <> src && id <> dst)
        (Cluster.nodes cl)
    with
    | Some n -> Cluster.Node.id n
    | None -> Alcotest.fail "need three nodes"
  in
  (match Cluster.Migrate.install cl { p with Cluster.Migrate.p_dst = third } with
  | Error Cluster.Unknown_offer -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "mis-routed package accepted");
  (* Route tamper: keep the destination honest but lie about the
     source.  The offer is found, the key agrees — the AAD the install
     derives from the lying route fails the blob's tag. *)
  (match
     Cluster.Migrate.install cl { p with Cluster.Migrate.p_src = src + 100 }
   with
  | Error Cluster.Transport_auth -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "src-tampered package accepted");
  (* The burn rule again: the src tamper consumed the offer. *)
  (match Cluster.Migrate.install cl p with
  | Error Cluster.Unknown_offer -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "replayed package accepted");
  assert_green cl;
  Cluster.destroy cl

(* A full successful install, then the same genuine package replayed:
   one offer admits exactly one blob. *)
let test_replay_after_success () =
  let cl, src = build () in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "x") ] in
  let dst = other cl src in
  let o = offer_ok cl ~src ~dst in
  let p = seal_ok cl o in
  (match Cluster.Migrate.install cl p with
  | Ok n -> Alcotest.(check bool) "installed" true (n >= 1)
  | Error e -> Alcotest.failf "install failed: %a" Cluster.pp_error e);
  (match Cluster.Migrate.install cl p with
  | Error Cluster.Unknown_offer -> ()
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "replayed package accepted");
  assert_green cl;
  Cluster.destroy cl

(* Resume against the stale source after cutover: every route to the
   old node answers with a typed forward, never a crash and never
   service. *)
let test_stale_source () =
  let cl, src = build () in
  let c = connect cl in
  let sid = Cluster.Client.session_id c in
  let _ = call_ok c [ (1, Bytes.of_string "x") ] in
  let dst = other cl src in
  ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
  let stale = Cluster.plane cl src in
  (* A fresh handshake against the stale source. *)
  let probe = serve_client cl src ~seed:77L in
  (match Serve.handshake stale ~tenant:"acme" (Serve.Client.hello probe) with
  | Error (Serve.Tenant_migrated { to_node; _ }) ->
      Alcotest.(check int) "forward names the destination" dst to_node
  | Error r -> Alcotest.failf "wrong refusal: %a" Serve.pp_reject r
  | Ok _ -> Alcotest.fail "stale source accepted a handshake");
  (* The migrated session's id is a forwarding address on the source. *)
  (match Serve.close_session stale ~session:sid with
  | Error (Serve.Session_migrated { to_node }) ->
      Alcotest.(check int) "session forward" dst to_node
  | Error r -> Alcotest.failf "wrong refusal: %a" Serve.pp_reject r
  | Ok () -> Alcotest.fail "stale source closed a migrated session");
  assert_green cl;
  Cluster.destroy cl

(* Migration mid-flush: while admitted requests are staged in the
   rings, export must refuse with the typed busy error and the staged
   work must still complete afterwards. *)
let test_migrate_mid_flush () =
  let cl, src = build () in
  let plane = Cluster.plane cl src in
  let sc = serve_client cl src ~seed:5L in
  (match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello sc) with
  | Error r -> Alcotest.failf "handshake: %a" Serve.pp_reject r
  | Ok accept -> (
      match Serve.Client.establish sc accept with
      | Error r -> Alcotest.failf "establish: %a" Serve.pp_reject r
      | Ok () -> ()));
  let req = Serve.Client.request sc ~ecall:2 (Bytes.of_string "staged") in
  (match Serve.submit plane req with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit: %a" Serve.pp_reject r);
  let dst = other cl src in
  (match Cluster.migrate cl ~tenant:"acme" ~dst with
  | Error (Cluster.Reject (Serve.Tenant_busy { staged; _ })) ->
      Alcotest.(check bool) "staged count" true (staged >= 1)
  | Error e -> Alcotest.failf "wrong refusal: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "migrated with staged requests");
  let replies = Serve.flush plane in
  Alcotest.(check int) "staged request served" 1 (List.length replies);
  (match Serve.Client.read_reply sc (List.hd replies) with
  | Ok b -> Alcotest.(check string) "reply intact" "STAGED" (Bytes.to_string b)
  | Error r -> Alcotest.failf "reply rejected: %a" Serve.pp_reject r);
  (* Drained: now the move goes through. *)
  ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
  assert_green cl;
  Cluster.destroy cl

(* ---------------------------------------------------------------- *)

(* Equal seeds give bit-equal fleets: same placements, same delivery
   schedules, same migration outcomes. *)
let test_determinism () =
  let run () =
    let cl, src = build ~net:{ Netsim.default_config with Netsim.jitter = 4_000 } () in
    let c = connect cl in
    let _ = call_ok c [ (1, Bytes.of_string "a"); (2, Bytes.of_string "b") ] in
    let dst = other cl src in
    ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
    let _ = call_ok c [ (2, Bytes.of_string "c") ] in
    let net = Netsim.stats (Cluster.net cl) in
    let s = Cluster.stats cl in
    let summary =
      ( src,
        dst,
        net.Netsim.sent,
        net.Netsim.delivered,
        net.Netsim.bytes_moved,
        net.Netsim.cycles_charged,
        s.Cluster.migration_cycles )
    in
    Cluster.destroy cl;
    summary
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "equal seeds, equal schedules" true (a = b)

(* Packet loss: the migration driver retries through drops; past the
   retry budget it fails typed, with no partial cutover. *)
let test_lossy_network () =
  (* ~30% loss with 3 retries per message: overwhelmingly likely to
     need at least one retry over the run, deterministically seeded. *)
  let cl, src =
    build ~net:{ Netsim.default_config with Netsim.loss_per_mille = 300 } ()
  in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "x") ] in
  let dst = other cl src in
  ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
  let r = call_ok c [ (2, Bytes.of_string "through loss") ] in
  Alcotest.(check string) "served through loss" "THROUGH LOSS"
    (Bytes.to_string (List.hd r));
  let net = Netsim.stats (Cluster.net cl) in
  Alcotest.(check bool) "drops happened" true (net.Netsim.dropped > 0);
  assert_green cl;
  Cluster.destroy cl

(* The LB tier: deterministic consistent-hash sharding, stable under
   re-query, and spread across nodes at reasonable tenant counts. *)
let test_lb_sharding () =
  let cl = Cluster.create Cluster.default_config in
  let seen = Hashtbl.create 4 in
  for i = 0 to 31 do
    let name = Printf.sprintf "tenant-%d" i in
    let o = Cluster.add_tenant cl ~name tenant_gen in
    Alcotest.(check int)
      (name ^ " owner stable") o
      (Cluster.owner cl ~tenant:name);
    Hashtbl.replace seen o ()
  done;
  Alcotest.(check bool)
    "32 tenants spread over >= 3 of 4 nodes" true
    (Hashtbl.length seen >= 3);
  Cluster.destroy cl

(* ---------------------------------------------------------------- *)

(* Rolling monitor upgrade: every node drained live, rebuilt, and
   refilled in turn; the client's session survives the whole sweep and
   every monitor version ticks. *)
let test_rolling_upgrade () =
  let cl, _ = build () in
  let c = connect cl in
  let sid = Cluster.Client.session_id c in
  let _ = call_ok c [ (1, Bytes.of_string "pre") ] in
  (match Cluster.rolling_upgrade cl with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rolling upgrade failed: %a" Cluster.pp_error e);
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "node %d upgraded" (Cluster.Node.id n))
        1 (Cluster.Node.version n))
    (Cluster.nodes cl);
  let r = call_ok c [ (2, Bytes.of_string "post upgrade") ] in
  Alcotest.(check string) "session survived the sweep" "POST UPGRADE"
    (Bytes.to_string (List.hd r));
  Alcotest.(check int) "same session id" sid (Cluster.Client.session_id c);
  let s = Cluster.stats cl in
  Alcotest.(check bool) "upgrade migrations counted" true (s.Cluster.migrations >= 2);
  assert_green cl;
  Cluster.destroy cl

(* Session ids are node-prefixed ([node lsl 20]).  Importing another
   node's session must not move this node's id counter into that node's
   space: node 0 hosts a node-1 session, and its own next session still
   gets a node-0 id, so it can later move to node 1 without colliding
   with node 1's next one. *)
let test_imported_ids_keep_their_space () =
  let cl =
    Cluster.create { Cluster.default_config with Cluster.nodes = 2; seed = 9100L }
  in
  let place tenant node =
    if Cluster.add_tenant cl ~name:tenant tenant_gen <> node then
      ignore (migrate_ok cl ~tenant ~dst:node : int)
  in
  place "a" 0;
  place "b" 1;
  place "c" 1;
  let b = connect ~seed:11L ~tenant:"b" cl in
  Alcotest.(check int) "node 1's first id" (1 lsl 20) (Cluster.Client.session_id b);
  ignore (migrate_ok cl ~tenant:"b" ~dst:0 : int);
  let a = connect ~seed:12L ~tenant:"a" cl in
  let c = connect ~seed:13L ~tenant:"c" cl in
  Alcotest.(check int) "a's id in node 0's space" 0
    (Cluster.Client.session_id a lsr 20);
  Alcotest.(check int) "c's id in node 1's space" 1
    (Cluster.Client.session_id c lsr 20);
  ignore (migrate_ok cl ~tenant:"a" ~dst:1 : int);
  List.iter
    (fun client -> ignore (call_ok client [ (1, Bytes.of_string "ping") ]))
    [ a; b; c ];
  assert_green cl;
  Cluster.destroy cl

(* An upgraded node's rebuilt plane restarts its id counter, then takes
   its own sessions home: a session opened afterwards must not reuse a
   homecoming id, or it would take over that session's slot. *)
let test_upgrade_skips_homecoming_ids () =
  let cl, src = build () in
  let old = connect cl in
  (match Cluster.upgrade_node cl src with
  | Ok () -> ()
  | Error e -> Alcotest.failf "upgrade failed: %a" Cluster.pp_error e);
  let fresh = connect ~seed:2L cl in
  Alcotest.(check int) "fresh session on the upgraded node" src
    (Cluster.Client.node_id fresh);
  Alcotest.(check bool) "homecoming id not reissued" true
    (Cluster.Client.session_id fresh <> Cluster.Client.session_id old);
  let r = call_ok old [ (2, Bytes.of_string "home") ] in
  Alcotest.(check string) "old client still served" "HOME"
    (Bytes.to_string (List.hd r));
  assert_green cl;
  Cluster.destroy cl

(* A rebuilt plane continues its node's id counter: node 1 issues an id
   to b, b moves to node 0, node 1 is rebuilt, and a fresh session on
   node 1 must not get b's id again — or moving b home would collide.
   Checked across an upgrade, then across a kill and revive. *)
let test_rebuilt_plane_keeps_ids () =
  let cl =
    Cluster.create { Cluster.default_config with Cluster.nodes = 2; seed = 9200L }
  in
  let place tenant node =
    if Cluster.add_tenant cl ~name:tenant tenant_gen <> node then
      ignore (migrate_ok cl ~tenant ~dst:node : int)
  in
  place "b" 1;
  place "c" 1;
  let b = connect ~seed:21L ~tenant:"b" cl in
  Alcotest.(check int) "node 1's first id" (1 lsl 20) (Cluster.Client.session_id b);
  let rebuilt what rebuild fresh_tenant =
    ignore (migrate_ok cl ~tenant:"b" ~dst:0 : int);
    rebuild ();
    let fresh = connect ~seed:22L ~tenant:fresh_tenant cl in
    Alcotest.(check int) (what ^ ": fresh session on node 1") 1
      (Cluster.Client.node_id fresh);
    ignore (migrate_ok cl ~tenant:"b" ~dst:1 : int);
    Alcotest.(check bool) (what ^ ": b's id not reissued") true
      (Cluster.Client.session_id fresh <> Cluster.Client.session_id b);
    List.iter
      (fun client -> ignore (call_ok client [ (1, Bytes.of_string "ping") ]))
      [ b; fresh ]
  in
  rebuilt "upgrade"
    (fun () ->
      match Cluster.upgrade_node cl 1 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "upgrade failed: %a" Cluster.pp_error e)
    "c";
  rebuilt "revive"
    (fun () ->
      Cluster.kill_node cl 1;
      Cluster.revive_node cl 1;
      place "d" 1)
    "d";
  assert_green cl;
  Cluster.destroy cl

(* Node-kill failover under the chaos plane: the owner dies mid-life,
   the LB repoints to the ring's next live node, the client re-attests
   there and resumes service; transient faults injected at the
   migration site are absorbed by the retry path during a follow-up
   live migration.  Fleet invariants green throughout. *)
let test_kill_failover_chaos () =
  let cl, src = build () in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "alive") ] in
  Cluster.kill_node cl src;
  Alcotest.(check bool) "owner dead" false
    (Cluster.Node.alive (Cluster.node cl src));
  (match Cluster.route cl ~tenant:"acme" with
  | Error (Cluster.Node_down n) -> Alcotest.(check int) "LB sees the dead owner" src n
  | Error e -> Alcotest.failf "wrong route error: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "routed to a dead node");
  let dst =
    match Cluster.failover cl ~tenant:"acme" with
    | Ok d -> d
    | Error e -> Alcotest.failf "failover failed: %a" Cluster.pp_error e
  in
  Alcotest.(check bool) "failed over elsewhere" true (dst <> src);
  (* Crash recovery loses sessions by design — reconnect, then serve. *)
  (match Cluster.Client.reconnect c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reconnect failed: %a" Cluster.pp_error e);
  let r = call_ok c [ (2, Bytes.of_string "failover") ] in
  Alcotest.(check string) "served after failover" "FAILOVER"
    (Bytes.to_string (List.hd r));
  (* Revive the old node and migrate home through injected transient
     faults at the migration site: with_retries must absorb them. *)
  Cluster.revive_node cl src;
  Fault.install
    [ { Fault.site = "cluster.migrate"; nth = 1; kind = Fault.Transient } ];
  let moved =
    match Cluster.migrate cl ~tenant:"acme" ~dst:src with
    | Ok n -> n
    | Error e -> Alcotest.failf "migrate through chaos failed: %a" Cluster.pp_error e
  in
  Alcotest.(check bool) "fault fired" true (Fault.injected_count () >= 1);
  Fault.clear ();
  Alcotest.(check bool) "sessions moved home" true (moved >= 1);
  let r2 = call_ok c [ (1, Bytes.of_string "home again") ] in
  Alcotest.(check string) "served at home" "home again"
    (Bytes.to_string (List.hd r2));
  assert_green cl;
  Cluster.destroy cl

(* A permanent fault at the migration site is a typed migration
   failure; the tenant stays where it was and keeps serving. *)
let test_permanent_migration_fault () =
  let cl, src = build () in
  let c = connect cl in
  let _ = call_ok c [ (1, Bytes.of_string "x") ] in
  let dst = other cl src in
  Fault.install
    [ { Fault.site = "cluster.migrate"; nth = 1; kind = Fault.Permanent } ];
  (match Cluster.migrate cl ~tenant:"acme" ~dst with
  | Error (Cluster.Migration_fault _) -> ()
  | Error e -> Alcotest.failf "wrong failure: %a" Cluster.pp_error e
  | Ok _ -> Alcotest.fail "migrated through a permanent fault");
  Fault.clear ();
  Alcotest.(check int) "placement unchanged" src (Cluster.owner cl ~tenant:"acme");
  let r = call_ok c [ (2, Bytes.of_string "still serving") ] in
  Alcotest.(check string) "still serving" "STILL SERVING"
    (Bytes.to_string (List.hd r));
  assert_green cl;
  Cluster.destroy cl

(* A transient fault at the migration site costs the source the retry
   backoff every other retry loop pays, os_ctxsw x 2^attempt on the
   source platform: twin fleets that differ only in the fault differ on
   the source clock by exactly one first-attempt backoff. *)
let test_migration_retry_backoff () =
  let source_advance faults =
    let cl, src = build ~nodes:2 () in
    let c = connect cl in
    ignore (call_ok c [ (1, Bytes.of_string "x") ] : bytes list);
    let p = Cluster.Node.platform (Cluster.node cl src) in
    let c0 = Cycles.now p.Platform.clock in
    Fault.install faults;
    let moved = Cluster.migrate cl ~tenant:"acme" ~dst:(other cl src) in
    Fault.clear ();
    (match moved with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "migrate failed: %a" Cluster.pp_error e);
    let advance = Cycles.now p.Platform.clock - c0 in
    Cluster.destroy cl;
    (advance, World_switch.retry_backoff_cost p.Platform.cost ~attempt:1)
  in
  let clean, backoff = source_advance [] in
  let faulted, _ =
    source_advance
      [ { Fault.site = "cluster.migrate"; nth = 1; kind = Fault.Transient } ]
  in
  Alcotest.(check int) "one first-attempt backoff" backoff (faulted - clean)

(* A migration that fails after its offer burns the destination's
   pending Kx secret, whatever failed: a permanent fault at the
   migration site, a tenant with staged requests, a message lost past
   its retries.  Each leaves no pending offer, and the next honest
   migration goes through. *)
let test_failed_migration_burns_offer () =
  let pending cl = (Cluster.stats cl).Cluster.pending_offers in
  let expect_failed what cl ~dst expected =
    (match Cluster.migrate cl ~tenant:"acme" ~dst with
    | Ok _ -> Alcotest.failf "%s: migrated" what
    | Error e when expected e -> ()
    | Error e -> Alcotest.failf "%s: wrong failure: %a" what Cluster.pp_error e);
    Alcotest.(check int) (what ^ ": no pending offer") 0 (pending cl)
  in
  let expect_migrates what cl ~dst =
    ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
    Alcotest.(check int) (what ^ ": offer installed") 0 (pending cl);
    assert_green cl;
    Cluster.destroy cl
  in
  (* A permanent fault at the migration site. *)
  let cl, src = build () in
  let dst = other cl src in
  Fault.install
    [ { Fault.site = "cluster.migrate"; nth = 1; kind = Fault.Permanent } ];
  expect_failed "permanent fault" cl ~dst (function
    | Cluster.Migration_fault _ -> true
    | _ -> false);
  Fault.clear ();
  expect_migrates "after the fault" cl ~dst;
  (* A request staged but not flushed: the export refuses. *)
  let cl, src = build () in
  let dst = other cl src in
  let plane = Cluster.plane cl src in
  let sc = serve_client cl src ~seed:5L in
  (match Serve.handshake plane ~tenant:"acme" (Serve.Client.hello sc) with
  | Error r -> Alcotest.failf "handshake: %a" Serve.pp_reject r
  | Ok accept -> (
      match Serve.Client.establish sc accept with
      | Error r -> Alcotest.failf "establish: %a" Serve.pp_reject r
      | Ok () -> ()));
  (match
     Serve.submit plane
       (Serve.Client.request sc ~ecall:1 (Bytes.of_string "staged"))
   with
  | Ok () -> ()
  | Error r -> Alcotest.failf "submit: %a" Serve.pp_reject r);
  expect_failed "staged request" cl ~dst (function
    | Cluster.Reject (Serve.Tenant_busy _) -> true
    | _ -> false);
  ignore (Serve.flush plane : Serve.reply list);
  expect_migrates "after the flush" cl ~dst;
  (* A network that drops every message: the offer never arrives, on
     every attempt. *)
  let cl, src =
    build ~net:{ Netsim.default_config with Netsim.loss_per_mille = 1000 } ()
  in
  let dst = other cl src in
  for attempt = 1 to 2 do
    expect_failed
      (Printf.sprintf "lossy network, attempt %d" attempt)
      cl ~dst
      (function Cluster.Net_partition -> true | _ -> false)
  done;
  Cluster.destroy cl;
  (* The source partitioned off, then healed. *)
  let cl, src = build () in
  let dst = other cl src in
  Netsim.set_down (Cluster.net cl) src true;
  expect_failed "partitioned source" cl ~dst (function
    | Cluster.Node_down n -> n = src
    | _ -> false);
  Netsim.set_down (Cluster.net cl) src false;
  expect_migrates "after the heal" cl ~dst

(* ---------------------------------------------------------------- *)
(* The client's wire                                                  *)

(* A call crosses the LB once each way: one message carries every
   request frame, one every outcome, in request order.  After a
   migration the request message meets the typed forward and the batch
   is re-sent to the new owner as one message. *)
let test_call_one_message_each_way () =
  let cl, src = build () in
  let c = connect cl in
  let sent () = (Netsim.stats (Cluster.net cl)).Netsim.sent in
  let expect what tag messages =
    let bodies = List.init 4 (Printf.sprintf "%s-%d" tag) in
    let s0 = sent () in
    let replies = call_ok c (List.map (fun b -> (1, Bytes.of_string b)) bodies) in
    Alcotest.(check int) (what ^ ": messages") messages (sent () - s0);
    Alcotest.(check (list string))
      (what ^ ": replies in request order")
      bodies
      (List.map Bytes.to_string replies)
  in
  expect "at the owner" "a" 2;
  let dst = other cl src in
  ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
  expect "after a migration" "b" 3;
  Alcotest.(check int) "chased to destination" dst (Cluster.Client.node_id c);
  Cluster.destroy cl

(* A call that fails on the wire leaves nothing staged.  At cluster seed
   11 the request message is lost past the retries, and nothing is
   admitted; at seed 5 the reply message is, after the handlers ran.
   Either way no admitted request is left for a later flush to serve to
   nobody, or to hold the tenant busy against a migration. *)
let test_lossy_call_strands_nothing () =
  List.iter
    (fun (seed, served) ->
      let what = Printf.sprintf "seed %Ld" seed in
      let cl, _ =
        build ~nodes:2 ~seed
          ~net:{ Netsim.default_config with Netsim.loss_per_mille = 600 }
          ()
      in
      let c = connect cl in
      let plane = Cluster.plane cl (Cluster.Client.node_id c) in
      let sid = Cluster.Client.session_id c in
      (match
         Cluster.Client.call c
           (List.init 4 (fun i -> (1, Bytes.of_string (string_of_int i))))
       with
      | Error Cluster.Net_partition -> ()
      | Error e -> Alcotest.failf "%s: wrong failure: %a" what Cluster.pp_error e
      | Ok _ -> Alcotest.failf "%s: call survived the loss" what);
      (match Serve.export_tenant plane ~tenant:"acme" with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "%s: export: %a" what Serve.pp_reject r);
      Alcotest.(check int) (what ^ ": nothing left to serve") 0
        (List.length
           (List.filter
              (fun (r : Serve.reply) -> r.Serve.r_session_id = sid)
              (Serve.flush plane)));
      Alcotest.(check int) (what ^ ": handlers run") served
        (Serve.ledger plane).Serve.served;
      Cluster.destroy cl)
    [ (11L, 0); (5L, 4) ]

(* Closing a client whose tenant moved since its last call closes the
   session on the new owner: the source holds only a forward, and
   ignoring it would leak the session's table entry and state slot. *)
let test_close_follows_forward () =
  let cl, src = build ~nodes:2 () in
  let c = connect cl in
  let dst = other cl src in
  ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
  let dst_plane = Cluster.plane cl dst in
  Alcotest.(check int) "session moved" 1 (Serve.session_count dst_plane);
  Cluster.Client.close c;
  Alcotest.(check int) "closed on the new owner" 0 (Serve.session_count dst_plane);
  assert_green cl;
  Cluster.destroy cl

(* ---------------------------------------------------------------- *)
(* The replay cache across a migration                                *)

let expect_replayed what = function
  | Error Serve.Replayed_nonce -> ()
  | Error r -> Alcotest.failf "%s: wrong refusal: %a" what Serve.pp_reject r
  | Ok _ -> Alcotest.failf "%s: replay accepted" what

(* The moving tenant's burnt nonces travel with it: a hello and a
   resumption recorded on the source are refused as replays at the
   destination. *)
let test_burnt_nonces_move () =
  let cl, src = build () in
  let plane = Cluster.plane cl src in
  let sc = serve_client cl src ~seed:31L in
  let hello = Serve.Client.hello sc in
  (match Serve.handshake plane ~tenant:"acme" hello with
  | Error r -> Alcotest.failf "handshake: %a" Serve.pp_reject r
  | Ok accept -> (
      match Serve.Client.establish sc accept with
      | Error r -> Alcotest.failf "establish: %a" Serve.pp_reject r
      | Ok () -> ()));
  let ticket =
    match Serve.issue_ticket plane ~session:(Serve.Client.session_id sc) with
    | Ok tk -> tk
    | Error r -> Alcotest.failf "issue_ticket: %a" Serve.pp_reject r
  in
  let resume = Serve.Client.resume_hello sc ~ticket in
  (match Serve.resume plane resume with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "resume: %a" Serve.pp_reject r);
  let dst = other cl src in
  ignore (migrate_ok cl ~tenant:"acme" ~dst : int);
  let moved = Cluster.plane cl dst in
  expect_replayed "recorded hello" (Serve.handshake moved ~tenant:"acme" hello);
  expect_replayed "recorded resume" (Serve.resume moved resume);
  assert_green cl;
  Cluster.destroy cl

(* A nonce stays burnt for every tenant it was burnt for.  A hello
   recorded for acme on its owner is replayed at tenant other on a second
   node, which burns it for other.  When acme moves there, the import
   meets the nonce already burnt and records it for acme too, so it
   travels on with acme to a third node and the replay is refused
   there. *)
let test_burnt_nonce_keeps_every_tenant () =
  let cl, a = build () in
  let b = other cl a in
  if Cluster.add_tenant cl ~name:"other" tenant_gen <> b then
    ignore (migrate_ok cl ~tenant:"other" ~dst:b : int);
  let hello = Serve.Client.hello (serve_client cl a ~seed:32L) in
  List.iter
    (fun (node, tenant) ->
      match Serve.handshake (Cluster.plane cl node) ~tenant hello with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "handshake %s: %a" tenant Serve.pp_reject r)
    [ (a, "acme"); (b, "other") ];
  ignore (migrate_ok cl ~tenant:"acme" ~dst:b : int);
  let c =
    match
      List.find_opt
        (fun n -> Cluster.Node.id n <> a && Cluster.Node.id n <> b)
        (Cluster.nodes cl)
    with
    | Some n -> Cluster.Node.id n
    | None -> Alcotest.fail "need three nodes"
  in
  ignore (migrate_ok cl ~tenant:"acme" ~dst:c : int);
  expect_replayed "recorded hello, two moves on"
    (Serve.handshake (Cluster.plane cl c) ~tenant:"acme" hello);
  assert_green cl;
  Cluster.destroy cl

(* A migration carries only its own tenant's burnt nonces: handshakes
   for another tenant on the source, and a resumption whose ticket never
   opened, leave the moving tenant's blob the same length. *)
let test_blob_carries_own_nonces () =
  let cl, src = build () in
  if Cluster.add_tenant cl ~name:"other" tenant_gen <> src then
    ignore (migrate_ok cl ~tenant:"other" ~dst:src : int);
  let _acme = connect cl in
  let plane = Cluster.plane cl src in
  let blob_length () =
    match Serve.export_tenant plane ~tenant:"acme" with
    | Ok blob -> Bytes.length blob
    | Error r -> Alcotest.failf "export: %a" Serve.pp_reject r
  in
  let before = blob_length () in
  let _others =
    List.init 3 (fun i -> connect ~seed:(Int64.of_int (40 + i)) ~tenant:"other" cl)
  in
  (match
     Serve.resume plane
       { Serve.r_ticket = Bytes.make 64 'x'; r_nonce = Bytes.make 16 'n' }
   with
  | Error (Serve.Bad_ticket _) -> ()
  | Error r -> Alcotest.failf "forged ticket: %a" Serve.pp_reject r
  | Ok _ -> Alcotest.fail "forged ticket resumed");
  Alcotest.(check int) "other tenants' nonces stay home" before (blob_length ());
  Cluster.destroy cl

(* --- host allocation of a live migration ------------------------------ *)

(* Minor words per migration of acme, with one open session, between
   its owner and a second node, in a fleet that has already moved it
   there and back once. *)
let migration_words cl ~home =
  let away = other cl home in
  let round_trip () =
    ignore (migrate_ok cl ~tenant:"acme" ~dst:away : int);
    ignore (migrate_ok cl ~tenant:"acme" ~dst:home : int)
  in
  round_trip ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 4 do
    round_trip ()
  done;
  (Gc.minor_words () -. w0) /. 8.

(* Burn [n] fresh nonces for acme on [node]: hellos with a share no key
   agrees with burn their nonce and cost the plane nothing else. *)
let burn_nonces cl ~node ~from n =
  let plane = Cluster.plane cl node in
  for i = from to from + n - 1 do
    let nonce = Bytes.make 16 'n' in
    Bytes.set_int64_le nonce 0 (Int64.of_int i);
    match
      Serve.handshake plane ~tenant:"acme"
        { Serve.nonce; client_kx = Bytes.make 32 'x' }
    with
    | Error Serve.Unknown_key_share -> ()
    | Error r -> Alcotest.failf "burn %d: %a" i Serve.pp_reject r
    | Ok _ -> Alcotest.failf "burn %d: a non-group share was accepted" i
  done

(* A steady migration allocates what the move keeps: the offer's quote
   and its appraisal, both ends' prepared transport keys, the tenant's
   blob (once: it is sealed and opened in place) and the rebuilt
   session, plus a 43-word SHA-256 context for each signature,
   key-exchange step and transcript hash, about 2,550 words.  Three
   copies of the blob, a 64-word message schedule per context and a
   boxed RNG state per draw read 3,890; the quote codec, the report body
   built twice and per-key scratch read 6,646. *)
let test_migration_allocation () =
  let cl, home = build ~nodes:2 () in
  let client = connect cl in
  let words = migration_words cl ~home in
  if words > 3300. then
    Alcotest.failf "a steady migration allocated %.0f minor words (> 3,300)"
      words;
  Cluster.Client.close client;
  Cluster.destroy cl

(* Each burnt nonce the tenant carries costs the move its cache key on
   the destination and little else: the slope between 300 and 600
   carried nonces is at most 10 words a nonce (three copies of it, two
   list cells and an option read 20).  Blobs this long, and the import's
   nonce array, are past the minor heap's 256-word limit, so the slope
   is what the import makes per nonce. *)
let test_carried_nonce_allocation () =
  let cl, home = build ~nodes:2 () in
  let client = connect cl in
  burn_nonces cl ~node:home ~from:0 300;
  let w300 = migration_words cl ~home in
  burn_nonces cl ~node:home ~from:300 300;
  let w600 = migration_words cl ~home in
  let per_nonce = (w600 -. w300) /. 300. in
  if per_nonce > 10. then
    Alcotest.failf "each carried nonce allocated %.2f minor words (> 10)"
      per_nonce;
  Cluster.Client.close client;
  Cluster.destroy cl

let suite =
  [
    Alcotest.test_case "live migration: seal, ship, re-attest, resume" `Quick
      test_live_migration;
    Alcotest.test_case "migrate back home" `Quick test_migrate_back;
    Alcotest.test_case "sealed blob tampered in transit" `Quick test_blob_tamper;
    Alcotest.test_case "a replayed offer quote is a binding mismatch" `Quick
      test_replayed_offer_quote;
    Alcotest.test_case "exchange refusals are typed" `Quick
      test_exchange_refusals;
    Alcotest.test_case "a refused seal exports nothing" `Quick
      test_refused_seal_exports_nothing;
    Alcotest.test_case "one TPM quote per boot" `Quick
      test_one_tpm_quote_per_boot;
    Alcotest.test_case "migration transport known answer" `Quick
      test_migration_transport_kat;
    Alcotest.test_case "package replayed / mis-routed" `Quick
      test_replay_and_misroute;
    Alcotest.test_case "replay after successful install" `Quick
      test_replay_after_success;
    Alcotest.test_case "stale source answers typed forwards" `Quick
      test_stale_source;
    Alcotest.test_case "migration refused mid-flush" `Quick
      test_migrate_mid_flush;
    Alcotest.test_case "equal seeds, equal fleets" `Quick test_determinism;
    Alcotest.test_case "migration through a lossy network" `Quick
      test_lossy_network;
    Alcotest.test_case "LB consistent-hash sharding" `Quick test_lb_sharding;
    Alcotest.test_case "rolling monitor upgrade" `Quick test_rolling_upgrade;
    Alcotest.test_case "imported session ids keep their node's space" `Quick
      test_imported_ids_keep_their_space;
    Alcotest.test_case "upgrade does not reissue homecoming ids" `Quick
      test_upgrade_skips_homecoming_ids;
    Alcotest.test_case "a rebuilt plane keeps its node's ids" `Quick
      test_rebuilt_plane_keeps_ids;
    Alcotest.test_case "node kill, failover, chaos migration home" `Quick
      test_kill_failover_chaos;
    Alcotest.test_case "permanent migration fault is typed" `Quick
      test_permanent_migration_fault;
    Alcotest.test_case "a failed migration leaves no pending offer" `Quick
      test_failed_migration_burns_offer;
    Alcotest.test_case "a migration retry pays the standard backoff" `Quick
      test_migration_retry_backoff;
    Alcotest.test_case "a call is one message each way" `Quick
      test_call_one_message_each_way;
    Alcotest.test_case "a lossy call strands no request" `Quick
      test_lossy_call_strands_nothing;
    Alcotest.test_case "close follows a migration forward" `Quick
      test_close_follows_forward;
    Alcotest.test_case "burnt nonces move with their tenant" `Quick
      test_burnt_nonces_move;
    Alcotest.test_case "a burnt nonce keeps every tenant it was burnt for"
      `Quick test_burnt_nonce_keeps_every_tenant;
    Alcotest.test_case "a migration carries only its tenant's nonces" `Quick
      test_blob_carries_own_nonces;
    Alcotest.test_case "a steady migration allocates what it keeps (allocation)"
      `Quick test_migration_allocation;
    Alcotest.test_case "a carried nonce costs its cache key (allocation)"
      `Quick test_carried_nonce_allocation;
  ]
