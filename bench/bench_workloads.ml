(* PR 9 tentpole bench: real LibOS workloads served through the attested
   plane — the Fig. 8b-8d request mixes, end to end.

   Where fig8b/fig8c/fig8d drive the workload kernels through direct
   backend calls, this experiment runs them as in-enclave services
   (lib/serve/services.ml): every request is sealed under a session key,
   admitted into the arena, decrypted in its ring slot, dispatched
   through the service's LibOS event loop (loopback socket + epoll), and
   the reply is sealed by the ring's in-enclave worker.  Three headline
   rates, on the critical-path basis (Serve.ledger), are rows of the
   perf gate (Perf_gate.table, BENCH.json):

   - resp_kv: zipfian YCSB-shaped RESP pipelines against the in-enclave
     store, SETs journaled to the AOF (Fig. 8d's redis);
   - kvdb: YCSB-A SQL against the B-tree engine, WAL-journaled, swept
     over loaded record counts (Fig. 8b's SQLite);
   - httpd: GETs streamed from the file-backed VFS docroot, swept over
     page sizes (Fig. 8c's lighttpd). *)

open Hyperenclave

let cores = 2
let rounds = 3
let reqs_per_round = 16

let what = "bench_workloads"

let build kind ~seed =
  let p, plane = Util.plane ~seed (Util.serve_config ~cores) in
  let name = Services.kind_name kind in
  let backend = Serve.add_tenant plane ~name (Services.backend_config kind) in
  let client, _ =
    Util.attest ~what p plane ~tenant:name ~seed:(Int64.add seed 1L)
      ~pin:(Option.get backend.Backend.identity) ()
  in
  (plane, backend, client)

let admin (backend : Backend.t) data =
  backend.Backend.call ~id:Services.ecall_admin ~data ~direction:Edge.In_out ()

type run = { label : string; ledger : Serve.ledger }

(* Drive [rounds] x [batch] requests from [next_request] through the
   plane; the service must accept every one.  The plane's ledger gives
   the attested service rate. *)
let drive kind plane client ~label ~batch next_request =
  for round = 0 to rounds - 1 do
    let reqs =
      List.init batch (fun i ->
          Serve.Client.request client ~ecall:Services.ecall_request
            (next_request ((round * batch) + i)))
    in
    List.iter
      (fun reply ->
        match Serve.Client.read_reply client reply with
        | Ok body when Services.reply_ok kind body -> ()
        | Ok body ->
            Format.eprintf "%s: %s refused a request: %s@." what label
              (Bytes.to_string body);
            exit 2
        | Error r -> Util.fail what "request" r)
      (Util.round ~what plane reqs)
  done;
  { label; ledger = Serve.ledger plane }

(* --- resp_kv: YCSB-shaped RESP traffic (Fig. 8d) ------------------------ *)

let resp_records = 256

let measure_resp ~batch ~seed =
  let plane, backend, client = build Services.Resp_kv ~seed in
  ignore (admin backend (Services.load_request ~records:resp_records));
  let gen =
    Workloads.Ycsb.create ~rng:(Rng.create ~seed:81L) ~records:resp_records ()
  in
  let r =
    drive Services.Resp_kv plane client
      ~label:(Printf.sprintf "batch %d" batch)
      ~batch
      (fun _ ->
        Services.request_of_op Services.Resp_kv (Workloads.Ycsb.next_op_a gen))
  in
  Serve.destroy plane;
  r

(* --- kvdb: YCSB-A SQL vs loaded records (Fig. 8b) ----------------------- *)

let measure_kvdb ~records ~seed =
  let plane, backend, client = build Services.Kvdb ~seed in
  ignore (admin backend (Services.load_request ~records));
  let gen = Workloads.Ycsb.create ~rng:(Rng.create ~seed:82L) ~records () in
  let r =
    drive Services.Kvdb plane client
      ~label:(Printf.sprintf "%d records" records)
      ~batch:reqs_per_round
      (fun i ->
        Services.request_of_op Services.Kvdb
          (if i mod 8 = 7 then Workloads.Ycsb.next_scan gen ~max_len:8 ()
           else Workloads.Ycsb.next_op_a gen))
  in
  Serve.destroy plane;
  r

(* --- httpd: GETs vs page size (Fig. 8c) --------------------------------- *)

let measure_httpd ~page_bytes ~seed =
  let plane, backend, client = build Services.Httpd ~seed in
  ignore (admin backend (Services.page_request ~path:"/index.html" ~bytes:page_bytes));
  let r =
    drive Services.Httpd plane client
      ~label:(Printf.sprintf "%d B pages" page_bytes)
      ~batch:reqs_per_round
      (fun _ -> Services.http_request ~path:"/index.html")
  in
  Serve.destroy plane;
  r

(* --- allocation: warm kvdb requests --------------------------------------- *)

let alloc_records = 256
let alloc_warmup_rounds = 2
let alloc_rounds = 8

(* Minor words a warm kvdb request allocates on the plane: admission, the
   flush (the in-enclave engine, its WAL and the memory simulator
   included) and reply assembly, over the YCSB-A mix with one scan in
   eight.  Every request frame is sealed up front and untimed rounds warm
   the rings, the engine's buffers and the WAL, then [Gc.minor_words]
   brackets the measured rounds. *)
let kvdb_minor_words_per_request () =
  let plane, backend, client = build Services.Kvdb ~seed:984L in
  ignore (admin backend (Services.load_request ~records:alloc_records));
  let gen =
    Workloads.Ycsb.create ~rng:(Rng.create ~seed:84L) ~records:alloc_records ()
  in
  let round () =
    List.init reqs_per_round (fun i ->
        Serve.Client.request client ~ecall:Services.ecall_request
          (Services.request_of_op Services.Kvdb
             (if i mod 8 = 7 then Workloads.Ycsb.next_scan gen ~max_len:8 ()
              else Workloads.Ycsb.next_op_a gen)))
  in
  let warmup = List.init alloc_warmup_rounds (fun _ -> round ()) in
  let measured = List.init alloc_rounds (fun _ -> round ()) in
  let serve reqs = ignore (Util.round ~what plane reqs) in
  List.iter serve warmup;
  let words0 = Gc.minor_words () in
  List.iter serve measured;
  let words1 = Gc.minor_words () in
  Serve.destroy plane;
  (words1 -. words0) /. float_of_int (alloc_rounds * reqs_per_round)

(* --- summary, smoke, gate headline ------------------------------------- *)

type summary = {
  resp_runs : run list; (* offered batch sweep: the 8d-style curve *)
  kvdb_runs : run list; (* record-count sweep: the 8b-style curve *)
  httpd_runs : run list; (* page-size sweep: the 8c-style curve *)
  rps_resp : float; (* headline rates for the gate *)
  rps_kvdb : float;
  rps_httpd : float;
  kvdb_words : float; (* minor words per warm kvdb request *)
}

let summarize () =
  let resp_runs =
    List.map (fun batch -> measure_resp ~batch ~seed:981L) [ 2; 8; 16 ]
  in
  let kvdb_runs =
    List.map (fun records -> measure_kvdb ~records ~seed:982L) [ 64; 256; 1024 ]
  in
  let httpd_runs =
    List.map
      (fun page_bytes -> measure_httpd ~page_bytes ~seed:983L)
      [ 1024; 16384; 65536 ]
  in
  let last l = List.nth l (List.length l - 1) in
  {
    resp_runs;
    kvdb_runs;
    httpd_runs;
    rps_resp = Util.critical_rps (last resp_runs).ledger;
    rps_kvdb = Util.critical_rps (List.hd kvdb_runs).ledger;
    rps_httpd = Util.critical_rps (List.hd httpd_runs).ledger;
    kvdb_words = kvdb_minor_words_per_request ();
  }

let print_runs title runs =
  Printf.printf "\n  %s:\n\n" title;
  Util.print_table ~columns:("point" :: Util.ledger_columns)
    (List.map (fun r -> r.label :: Util.ledger_cells r.ledger) runs)

let run () =
  Util.set_experiment "workloads";
  Util.banner "Workloads"
    "Real LibOS workloads behind the attested plane (services layer): \
     RESP store, SQL engine and file-backed httpd served over AEAD \
     sessions through the arena ring, 2 cores, 1 tenant each.";
  let s = summarize () in
  print_runs "resp_kv — YCSB-A RESP, offered batch sweep (Fig. 8d shape)"
    s.resp_runs;
  print_runs "kvdb — YCSB-A SQL + scans vs loaded records (Fig. 8b shape)"
    s.kvdb_runs;
  print_runs "httpd — file-backed GETs vs page size (Fig. 8c shape)"
    s.httpd_runs;
  Printf.printf
    "\n  headline: resp_kv %.0f req/s, kvdb %.0f req/s, httpd %.0f req/s\n"
    s.rps_resp s.rps_kvdb s.rps_httpd;
  Printf.printf "  host allocation: %.1f minor words per warm kvdb request\n"
    s.kvdb_words

(* Fast end-to-end sanity pass, run from `dune build @serve_smoke`: each
   service serves one round over a real AEAD session; any refused or
   failed request is fatal. *)
let smoke () =
  let checks =
    [
      ("resp_kv", measure_resp ~batch:4 ~seed:991L, rounds * 4);
      ("kvdb", measure_kvdb ~records:32 ~seed:992L, rounds * reqs_per_round);
      ( "httpd",
        measure_httpd ~page_bytes:4096 ~seed:993L,
        rounds * reqs_per_round );
    ]
    |> List.map (fun (name, r, expected) ->
           (name, r.ledger.Serve.served, expected))
  in
  List.iter
    (fun (name, served, expected) ->
      if served <> expected then begin
        Printf.eprintf "workloads_smoke: FAIL — %s served %d of %d requests\n"
          name served expected;
        exit 1
      end)
    checks;
  Printf.printf "workloads_smoke: OK — %s\n"
    (String.concat ", "
       (List.map
          (fun (name, served, _) -> Printf.sprintf "%s %d served" name served)
          checks))

let headline s =
  [
    ("workload_rps_resp_kv", s.rps_resp);
    ("workload_rps_kvdb", s.rps_kvdb);
    ("workload_rps_httpd", s.rps_httpd);
    ("kvdb_minor_words_per_request", s.kvdb_words);
  ]
