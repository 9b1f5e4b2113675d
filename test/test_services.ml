(* Real LibOS workloads behind the attested plane: every request enters
   as an AEAD frame, decrypts into its ring slot, rides a loopback
   socket through the service's in-enclave event loop, and the reply is
   sealed in place.  These are the Fig. 8b-8d request mixes, end to end. *)

open Hyperenclave

let golden_of (p : Platform.t) =
  Verifier.golden_of_boot_log
    ~ek_public:(Tpm.ek_public p.Platform.tpm)
    (Monitor.boot_log p.Platform.monitor)

let identity_of (backend : Backend.t) =
  match backend.Backend.identity with
  | Some id -> id
  | None -> Bytes.empty

let client_for p ~seed backend =
  let identity = identity_of backend in
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

(* One plane, one service tenant, one established session. *)
let build kind ~seed =
  let p = Platform.create ~seed () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let name = Services.kind_name kind in
  let backend = Serve.add_tenant plane ~name (Services.backend_config kind) in
  let client = client_for p ~seed:(Int64.add seed 1L) backend in
  (match Serve.handshake plane ~tenant:name (Serve.Client.hello client) with
  | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
  | Ok accept -> (
      match Serve.Client.establish client accept with
      | Error r -> Alcotest.failf "establish failed: %a" Serve.pp_reject r
      | Ok () -> ()));
  (p, plane, backend, client)

let admin (backend : Backend.t) data =
  backend.Backend.call ~id:Services.ecall_admin ~data ~direction:Edge.In_out ()

let serve_one plane client request =
  match
    Serve.Client.roundtrip plane client [ (Services.ecall_request, request) ]
  with
  | [ Ok reply ] -> reply
  | [ Error r ] -> Alcotest.failf "request rejected: %a" Serve.pp_reject r
  | results -> Alcotest.failf "expected one reply, got %d" (List.length results)

let check_invariants (p : Platform.t) =
  match Invariants.check p.Platform.monitor with
  | [] -> ()
  | findings ->
      Alcotest.failf "monitor invariants violated: %s"
        (Invariants.summary findings)

let prefix pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

(* ------------------------------------------------------------------ *)

let test_resp_kv_end_to_end () =
  let p, plane, backend, client = build Services.Resp_kv ~seed:9100L in
  (* Operator bulk-load, off-session. *)
  Alcotest.(check string)
    "loaded store size" "100"
    (Bytes.to_string (admin backend (Services.load_request ~records:100)));
  (* YCSB-shaped RESP traffic over the AEAD session: zipfian point
     reads/updates plus scan anchors, every reply affirmative. *)
  let gen = Hyperenclave.Workloads.Ycsb.create ~rng:(Rng.create ~seed:91L) ~records:100 () in
  for i = 1 to 30 do
    let op =
      if i mod 5 = 0 then Hyperenclave.Workloads.Ycsb.next_scan gen ~max_len:4 ()
      else if i mod 2 = 0 then Hyperenclave.Workloads.Ycsb.next_op_b gen
      else Hyperenclave.Workloads.Ycsb.next_op_a gen
    in
    let reply =
      serve_one plane client (Services.request_of_op Services.Resp_kv op)
    in
    Alcotest.(check bool)
      (Printf.sprintf "op %d served (%s)" i (Bytes.to_string reply))
      true
      (Services.reply_ok Services.Resp_kv reply)
  done;
  (* Explicit SET/GET through the session round-trips the value. *)
  let set =
    Hyperenclave.Workloads.Resp_kv.encode_command [ "SET"; "paper"; "hyperenclave" ]
  in
  Alcotest.(check string) "SET ok" "+OK" (Bytes.to_string (serve_one plane client set));
  let get = Hyperenclave.Workloads.Resp_kv.encode_command [ "GET"; "paper" ] in
  Alcotest.(check string)
    "GET returns the value" "$12\nhyperenclave"
    (Bytes.to_string (serve_one plane client get));
  (* A miss is a typed nil, not an error and not a hit. *)
  let miss =
    serve_one plane client
      (Hyperenclave.Workloads.Resp_kv.encode_command [ "GET"; "absent" ])
  in
  Alcotest.(check bool) "miss is nil" false (Services.reply_ok Services.Resp_kv miss);
  check_invariants p;
  Serve.destroy plane

let test_kvdb_end_to_end () =
  let p, plane, backend, client = build Services.Kvdb ~seed:9200L in
  Alcotest.(check string)
    "loaded rows" "200"
    (Bytes.to_string (admin backend (Services.load_request ~records:200)));
  let module Ycsb = Hyperenclave.Workloads.Ycsb in
  let gen = Ycsb.create ~rng:(Rng.create ~seed:92L) ~records:200 () in
  (* The three YCSB mixes plus range scans, as SQL over the session. *)
  let ops =
    List.init 12 (fun _ -> Ycsb.next_op_a gen)
    @ List.init 12 (fun _ -> Ycsb.next_op_b gen)
    @ List.init 12 (fun _ -> Ycsb.next_op_c gen)
    @ List.init 6 (fun _ -> Ycsb.next_scan gen ~max_len:8 ())
  in
  List.iteri
    (fun i op ->
      let reply = serve_one plane client (Services.request_of_op Services.Kvdb op) in
      let s = Bytes.to_string reply in
      Alcotest.(check bool)
        (Printf.sprintf "stmt %d served (%s)" i s)
        true
        (Services.reply_ok Services.Kvdb reply);
      match op with
      | Ycsb.Scan (_, _) ->
          Alcotest.(check bool) ("scan counts rows: " ^ s) true
            (prefix "+" s
            && String.length s > 5
            && String.sub s (String.length s - 4) 4 = "rows")
      | Ycsb.Read _ | Ycsb.Update _ -> ())
    ops;
  (* Malformed SQL over a valid envelope: typed engine error in-band. *)
  let bad =
    serve_one plane client (Bytes.of_string "DROP TABLE kv; --")
  in
  Alcotest.(check bool)
    ("bad SQL is -ERR: " ^ Bytes.to_string bad)
    true
    (prefix "-ERR" (Bytes.to_string bad));
  (* And the session is still healthy afterwards. *)
  let again =
    serve_one plane client
      (Services.request_of_op Services.Kvdb (Ycsb.Read 0))
  in
  Alcotest.(check bool) "session survives the error" true
    (Services.reply_ok Services.Kvdb again);
  check_invariants p;
  Serve.destroy plane

let test_httpd_end_to_end () =
  let p, plane, backend, client = build Services.Httpd ~seed:9300L in
  (* Populate the file-backed docroot: one multi-chunk page (body
     streaming crosses chunk_bytes twice), one small page. *)
  Alcotest.(check string)
    "docroot page" "40000"
    (Bytes.to_string
       (admin backend (Services.page_request ~path:"/index.html" ~bytes:40000)));
  Alcotest.(check string)
    "small page" "100"
    (Bytes.to_string
       (admin backend (Services.page_request ~path:"/favicon.ico" ~bytes:100)));
  let get path = serve_one plane client (Services.http_request ~path) in
  let index = Bytes.to_string (get "/index.html") in
  Alcotest.(check bool) ("200 with full body: " ^ index) true
    (Services.reply_ok Services.Httpd (Bytes.of_string index)
    && prefix "HTTP/1.1 200 OK bytes=40000" index);
  Alcotest.(check bool) "small file served" true
    (prefix "HTTP/1.1 200 OK bytes=100" (Bytes.to_string (get "/favicon.ico")));
  (* Typed protocol failures, all in-band: missing file, bad method,
     unparseable request line. *)
  Alcotest.(check bool) "404 on a miss" true
    (prefix "HTTP/1.1 404" (Bytes.to_string (get "/missing.html")));
  let post =
    serve_one plane client (Bytes.of_string "POST /index.html HTTP/1.1\nhost: svc\n")
  in
  Alcotest.(check bool) "405 on POST" true
    (prefix "HTTP/1.1 405" (Bytes.to_string post));
  let garbage = serve_one plane client (Bytes.of_string "\x00\x01not-http") in
  Alcotest.(check bool) "400 on garbage" true
    (prefix "HTTP/1.1 400" (Bytes.to_string garbage));
  check_invariants p;
  Serve.destroy plane

let test_negative_paths () =
  (* One plane, two service tenants, independent sessions. *)
  let p = Platform.create ~seed:9400L () in
  let plane = Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p Serve.default_config in
  let resp_backend =
    Serve.add_tenant plane ~name:"resp_kv" (Services.backend_config Services.Resp_kv)
  in
  let kv_backend =
    Serve.add_tenant plane ~name:"kvdb" (Services.backend_config Services.Kvdb)
  in
  let establish name client =
    match Serve.handshake plane ~tenant:name (Serve.Client.hello client) with
    | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
    | Ok accept -> (
        match Serve.Client.establish client accept with
        | Error r -> Alcotest.failf "establish failed: %a" Serve.pp_reject r
        | Ok () -> ())
  in
  let c_resp = client_for p ~seed:941L resp_backend in
  let c_kv = client_for p ~seed:942L kv_backend in
  establish "resp_kv" c_resp;
  establish "kvdb" c_kv;
  ignore (admin resp_backend (Services.load_request ~records:10));
  ignore (admin kv_backend (Services.load_request ~records:10));
  let expect_reject expected = function
    | Ok _ -> Alcotest.failf "expected %s rejection" expected
    | Error r ->
        Alcotest.(check string) "reject kind" expected (Serve.reject_name r)
  in
  (* Malformed RESP inside a perfectly valid envelope: the parser's
     typed error comes back in-band and the plane keeps serving. *)
  let bad =
    serve_one plane c_resp (Bytes.of_string "*2\r\n$5\r\nab\r\n")
  in
  Alcotest.(check bool)
    ("parser bound violation is -ERR: " ^ Bytes.to_string bad)
    true
    (prefix "-ERR" (Bytes.to_string bad));
  let healthy =
    serve_one plane c_resp
      (Hyperenclave.Workloads.Resp_kv.encode_command [ "DBSIZE" ])
  in
  Alcotest.(check string) "plane still serving" "+10" (Bytes.to_string healthy);
  (* Oversize request: ciphertext exceeding the ring slot is refused at
     admission with a typed Unsupported, not a truncation. *)
  expect_reject "unsupported"
    (Serve.submit plane
       (Serve.Client.request c_resp ~ecall:Services.ecall_request
          (Bytes.make 300 'x')));
  (* Cross-tenant key confusion: a request sealed under kvdb's session
     key replayed into the resp_kv session is admitted, and resp_kv's
     enclave refuses its tag in the flush that serves the honest
     request. *)
  let stolen =
    Serve.Client.request c_kv ~ecall:Services.ecall_request
      (Bytes.of_string "SELECT v FROM kv WHERE k = 1")
  in
  List.iter
    (fun req ->
      match Serve.submit plane req with
      | Ok () -> ()
      | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r)
    [
      { stolen with Serve.session_id = Serve.Client.session_id c_resp };
      Serve.Client.request c_resp ~ecall:Services.ecall_request
        (Hyperenclave.Workloads.Resp_kv.encode_command [ "DBSIZE" ]);
    ];
  (match Serve.flush plane with
  | [ confused; honest ] ->
      expect_reject "bad-auth" (Serve.Client.read_reply c_resp confused);
      (match Serve.Client.read_reply c_resp honest with
      | Ok body -> Alcotest.(check string) "honest request served" "+10" (Bytes.to_string body)
      | Error r -> Alcotest.failf "honest request failed: %a" Serve.pp_reject r)
  | replies -> Alcotest.failf "expected 2 replies, got %d" (List.length replies));
  (* Per-service request accounting surfaced through the scheduler. *)
  let telemetry = Monitor.telemetry p.Platform.monitor in
  Alcotest.(check bool) "resp_kv requests labeled" true
    (Telemetry.counter telemetry "sched.svc.resp_kv" > 0);
  check_invariants p;
  Serve.destroy plane

(* The plane admits the admin ECALL like any handler, so a session
   client can send one.  A malformed payload must be answered in-band:
   an exception escaping a handler leaves [Serve.flush] and drops every
   staged request unanswered, the honest one in the same flush too. *)
let test_malformed_admin_in_band () =
  let module Ycsb = Hyperenclave.Workloads.Ycsb in
  List.iter
    (fun (kind, seed, setup, honest, refusal) ->
      let p, plane, backend, client = build kind ~seed in
      ignore (admin backend setup);
      List.iter
        (fun payload ->
          List.iter
            (fun (ecall, data) ->
              match Serve.submit plane (Serve.Client.request client ~ecall data) with
              | Ok () -> ()
              | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r)
            [
              (Services.ecall_admin, Bytes.of_string payload);
              (Services.ecall_request, honest);
            ];
          let body reply =
            match Serve.Client.read_reply client reply with
            | Ok body -> Bytes.to_string body
            | Error r -> Alcotest.failf "%S: reply failed: %a" payload Serve.pp_reject r
          in
          match Serve.flush plane with
          | [ bad; good ] ->
              let bad = body bad and good = body good in
              Alcotest.(check bool)
                (Printf.sprintf "%s %S answered in-band: %s"
                   (Services.kind_name kind) payload bad)
                true (prefix refusal bad);
              Alcotest.(check bool)
                (Printf.sprintf "%s honest request served: %s"
                   (Services.kind_name kind) good)
                true
                (Services.reply_ok kind (Bytes.of_string good))
          | replies -> Alcotest.failf "expected 2 replies, got %d" (List.length replies))
        [ "load:x"; "bogus"; ""; "load:-1"; "load:1:2"; "page:/x:abc"; "page:/x:-1" ];
      check_invariants p;
      Serve.destroy plane)
    [
      ( Services.Resp_kv, 77L, Services.load_request ~records:4,
        Services.request_of_op Services.Resp_kv (Ycsb.Read 1), "-ERR bad admin" );
      ( Services.Kvdb, 78L, Services.load_request ~records:4,
        Services.request_of_op Services.Kvdb (Ycsb.Read 1), "-ERR bad admin" );
      ( Services.Httpd, 79L, Services.page_request ~path:"/index.html" ~bytes:100,
        Services.http_request ~path:"/index.html", "HTTP/1.1 400 bad admin" );
    ]

(* A handler reply longer than the 256-byte ring slot refuses its own
   slot only.  One request per service whose reply would not fit (kvdb's
   engine no longer echoes the statement, so its answer is an in-band
   error that fits; resp_kv's unknown command and httpd's bad version
   still echo and are refused as Unsupported) shares a one-core ring
   with another session's honest request, which must be served.  Failing
   the whole ring answered both with a session fault. *)
let test_oversized_reply_refuses_its_slot () =
  let module Ycsb = Hyperenclave.Workloads.Ycsb in
  let config =
    {
      Serve.default_config with
      Serve.sched = { Sched.default_config with Sched.cores = 1 };
    }
  in
  List.iter
    (fun (kind, seed, setup, bad, in_band) ->
      let p = Platform.create ~seed () in
      let plane =
        Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p config
      in
      let name = Services.kind_name kind in
      let backend = Serve.add_tenant plane ~name (Services.backend_config kind) in
      let connect k =
        let client = client_for p ~seed:(Int64.add seed k) backend in
        (match Serve.handshake plane ~tenant:name (Serve.Client.hello client) with
        | Error r -> Alcotest.failf "handshake rejected: %a" Serve.pp_reject r
        | Ok accept -> (
            match Serve.Client.establish client accept with
            | Error r -> Alcotest.failf "establish failed: %a" Serve.pp_reject r
            | Ok () -> ()));
        client
      in
      let c_bad = connect 1L and c_honest = connect 2L in
      ignore (admin backend setup);
      let honest =
        match kind with
        | Services.Httpd -> Services.http_request ~path:"/index.html"
        | Services.Resp_kv | Services.Kvdb ->
            Services.request_of_op kind (Ycsb.Read 1)
      in
      Alcotest.(check bool) (name ^ ": the request fits its slot") true
        (Bytes.length bad <= Serve.slot_bytes);
      List.iter
        (fun (client, data) ->
          match
            Serve.submit plane
              (Serve.Client.request client ~ecall:Services.ecall_request data)
          with
          | Ok () -> ()
          | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r)
        [ (c_bad, bad); (c_honest, honest) ];
      let replies = Serve.flush plane in
      Alcotest.(check int) (name ^ ": two replies") 2 (List.length replies);
      let reply_of client =
        match
          List.find_opt
            (fun r -> r.Serve.r_session_id = Serve.Client.session_id client)
            replies
        with
        | Some r -> Serve.Client.read_reply client r
        | None -> Alcotest.failf "%s: no reply for a session" name
      in
      (match (reply_of c_bad, in_band) with
      | Ok body, Some expected ->
          Alcotest.(check string) (name ^ ": in-band error") expected
            (Bytes.to_string body)
      | Error (Serve.Unsupported _), None -> ()
      | Ok body, None ->
          Alcotest.failf "%s: an oversized reply came back (%d bytes)" name
            (Bytes.length body)
      | Error r, _ ->
          Alcotest.failf "%s: the bad request got %a" name Serve.pp_reject r);
      (match reply_of c_honest with
      | Ok body ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: the neighbour is served (%s)" name
               (Bytes.to_string body))
            true (Services.reply_ok kind body)
      | Error r ->
          Alcotest.failf "%s: the neighbour failed: %a" name Serve.pp_reject r);
      check_invariants p;
      Serve.destroy plane)
    [
      ( Services.Kvdb, 9500L, Services.load_request ~records:4,
        Bytes.of_string ("SELECT " ^ String.make 243 'x'),
        Some "-ERR parse error" );
      ( Services.Resp_kv, 9510L, Services.load_request ~records:4,
        Hyperenclave.Workloads.Resp_kv.encode_command [ String.make 244 'z' ],
        None );
      ( Services.Httpd, 9520L,
        Services.page_request ~path:"/index.html" ~bytes:100,
        Bytes.of_string ("GET / " ^ String.make 250 'V'),
        None );
    ]

(* The WAL journals what the engine executed, not what the statement's
   first byte looks like: an update with a leading blank is applied and
   must be journaled; a SELECT and an update of a missing row are not.
   The handlers run on a hand-built env whose heap records every write,
   which is where the WAL's extent lives. *)
let test_wal_journals_executed_mutations () =
  let clock = Cycles.create () in
  let heap = Bytes.make 65536 '\000' and written = ref [] in
  let env =
    {
      Backend.clock;
      compute = Cycles.tick clock;
      mem =
        Mem_sim.create ~clock ~cost:Cost_model.default ~rng:(Rng.create ~seed:5L)
          ~engine:Hw.Mem_crypto.Sme ();
      ocall = (fun ~id:_ ?data:_ () -> Alcotest.fail "a service OCALLed");
      interrupt = (fun () -> ());
      heap_write =
        (fun ~off data ->
          written := Bytes.to_string data :: !written;
          Bytes.blit data 0 heap off (Bytes.length data));
      heap_read = (fun ~off ~len -> Bytes.sub heap off len);
      backend_name = "wal-probe";
    }
  in
  let handlers = Services.handlers Services.Kvdb in
  let call id data = Bytes.to_string ((List.assoc id handlers) env data) in
  Alcotest.(check string) "loaded" "4"
    (call Services.ecall_admin (Services.load_request ~records:4));
  let journaled stmt = List.mem (stmt ^ "\n") !written in
  List.iter
    (fun (stmt, reply, logged) ->
      Alcotest.(check string) ("reply to " ^ stmt) reply
        (call Services.ecall_request (Bytes.of_string stmt));
      Alcotest.(check bool) ("journaled: " ^ stmt) logged (journaled stmt))
    [
      (" UPDATE kv SET v = 'x' WHERE k = 3", "+ok", true);
      ("\tupdate kv SET v = 'y' WHERE k = 2", "+ok", true);
      ("SELECT v FROM kv WHERE k = 3", "+x", false);
      ("UPDATE kv SET v = 'z' WHERE k = 99", "-ERR not found", false);
      ("\n INSERT INTO kv VALUES (7, 'w')", "+ok", true);
    ]

(* A warm kvdb statement through the plane allocates what its request
   keeps: the enclave's copy of the slot body, the received statement,
   the value it stores or returns, the reply on its way out and its
   sealed frame, and the flush's own set-up: 175, 196 and 159 words for
   a SELECT, an UPDATE and a BETWEEN.  A boxed RNG state per memory
   simulator draw read 211, 232 and 195.  A closure per hash probe and a
   boxed flag per simulated cache line, a list-built tokenizer and touch
   trail, a listed range scan, and copies in the LibOS socket path and
   the WAL line read 580, 708 and 1,130.
   The median of nine one-request flushes leaves out a flush where the
   WAL's extent grows. *)
let test_kvdb_request_allocation () =
  let _p, plane, backend, client = build Services.Kvdb ~seed:9600L in
  ignore (admin backend (Services.load_request ~records:200));
  let words stmt =
    let once () =
      let req =
        Serve.Client.request client ~ecall:Services.ecall_request
          (Bytes.of_string stmt)
      in
      let w0 = Gc.minor_words () in
      (match Serve.submit plane req with
      | Ok () -> ()
      | Error r -> Alcotest.failf "submit rejected: %a" Serve.pp_reject r);
      let reply =
        match Serve.flush plane with
        | [ reply ] -> Serve.Client.read_reply client reply
        | replies -> Alcotest.failf "expected 1 reply, got %d" (List.length replies)
      in
      let words = Gc.minor_words () -. w0 in
      (match reply with
      | Ok body ->
          Alcotest.(check bool)
            (Printf.sprintf "%S answered (%s)" stmt (Bytes.to_string body))
            true
            (Services.reply_ok Services.Kvdb body)
      | Error r -> Alcotest.failf "%S failed: %a" stmt Serve.pp_reject r);
      words
    in
    for _ = 1 to 5 do
      ignore (once () : float)
    done;
    let runs = List.sort compare (List.init 9 (fun _ -> once ())) in
    List.nth runs 4
  in
  List.iter
    (fun stmt ->
      let w = words stmt in
      if w > 280. then
        Alcotest.failf "%S allocated %.0f minor words (> 280)" stmt w)
    [
      "SELECT v FROM kv WHERE k = 17";
      "UPDATE kv SET v = 'fresh-value-for-17' WHERE k = 17";
      "SELECT v FROM kv WHERE k BETWEEN 40 AND 47";
    ];
  Serve.destroy plane

let suite =
  [
    Alcotest.test_case "resp_kv over AEAD sessions" `Quick test_resp_kv_end_to_end;
    Alcotest.test_case "kvdb YCSB A/B/C + scans over AEAD" `Quick
      test_kvdb_end_to_end;
    Alcotest.test_case "httpd file-backed docroot over AEAD" `Quick
      test_httpd_end_to_end;
    Alcotest.test_case "negative paths stay typed" `Quick test_negative_paths;
    Alcotest.test_case "malformed admin answered in-band" `Quick
      test_malformed_admin_in_band;
    Alcotest.test_case "an oversized reply refuses its own slot" `Quick
      test_oversized_reply_refuses_its_slot;
    Alcotest.test_case "the WAL journals executed mutations" `Quick
      test_wal_journals_executed_mutations;
    Alcotest.test_case "a warm kvdb request allocates what it keeps" `Quick
      test_kvdb_request_allocation;
  ]
