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

let build kind ~seed =
  let p = Platform.create ~seed () in
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
  let name = Services.kind_name kind in
  let backend = Serve.add_tenant plane ~name (Services.backend_config kind) in
  let identity = Option.get backend.Backend.identity in
  let client =
    Serve.Client.create
      ~rng:(Rng.create ~seed:(Int64.add seed 1L))
      ~golden:(Bench_serve.golden_of p)
      ~policy:
        {
          Verifier.expected_mrenclave = Some identity;
          expected_mrsigner = None;
          allow_debug = false;
        }
      ~expected_tenant:identity ()
  in
  (match Serve.handshake plane ~tenant:name (Serve.Client.hello client) with
  | Ok accept -> (
      match Serve.Client.establish client accept with
      | Ok () -> ()
      | Error r ->
          Format.eprintf "bench_workloads: establish failed: %a@."
            Serve.pp_reject r;
          exit 2)
  | Error r ->
      Format.eprintf "bench_workloads: handshake failed: %a@." Serve.pp_reject r;
      exit 2);
  (p, plane, backend, client)

let admin (backend : Backend.t) data =
  backend.Backend.call ~id:Services.ecall_admin ~data ~direction:Edge.In_out ()

type run = {
  label : string;
  served : int;
  rps : float; (* critical-path basis *)
  sched_rps : float; (* scheduler-only basis *)
  ledger : Serve.ledger;
}

(* Drive [rounds] x [batch] requests from [next_request] through the
   plane and convert the plane ledger's critical path into an attested
   service rate. *)
let drive kind plane client ~label ~batch next_request =
  let served = ref 0 in
  for round = 0 to rounds - 1 do
    for i = 0 to batch - 1 do
      let req =
        Serve.Client.request client ~ecall:Services.ecall_request
          (next_request ((round * batch) + i))
      in
      match Serve.submit plane req with
      | Ok () -> ()
      | Error r ->
          Format.eprintf "bench_workloads: submit rejected: %a@."
            Serve.pp_reject r;
          exit 2
    done;
    List.iter
      (fun reply ->
        match Serve.Client.read_reply client reply with
        | Ok body ->
            if not (Services.reply_ok kind body) then begin
              Format.eprintf "bench_workloads: %s refused a request: %s@." label
                (Bytes.to_string body);
              exit 2
            end;
            incr served
        | Error r ->
            Format.eprintf "bench_workloads: request failed: %a@."
              Serve.pp_reject r;
            exit 2)
      (Serve.flush plane)
  done;
  let ledger = Serve.ledger plane in
  {
    label;
    served = !served;
    rps = Util.critical_rps ledger;
    sched_rps = Util.sched_only_rps (Serve.sched_stats plane);
    ledger;
  }

(* --- resp_kv: YCSB-shaped RESP traffic (Fig. 8d) ------------------------ *)

let resp_records = 256

let measure_resp ~batch ~seed =
  let _p, plane, backend, client = build Services.Resp_kv ~seed in
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
  let _p, plane, backend, client = build Services.Kvdb ~seed in
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
  let _p, plane, backend, client = build Services.Httpd ~seed in
  ignore (admin backend (Services.page_request ~path:"/index.html" ~bytes:page_bytes));
  let r =
    drive Services.Httpd plane client
      ~label:(Printf.sprintf "%d B pages" page_bytes)
      ~batch:reqs_per_round
      (fun _ -> Services.http_request ~path:"/index.html")
  in
  Serve.destroy plane;
  r

(* --- summary, smoke, gate headline ------------------------------------- *)

type summary = {
  resp_runs : run list; (* offered batch sweep: the 8d-style curve *)
  kvdb_runs : run list; (* record-count sweep: the 8b-style curve *)
  httpd_runs : run list; (* page-size sweep: the 8c-style curve *)
  rps_resp : float; (* headline rates for the gate *)
  rps_kvdb : float;
  rps_httpd : float;
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
    rps_resp = (last resp_runs).rps;
    rps_kvdb = (List.hd kvdb_runs).rps;
    rps_httpd = (List.hd httpd_runs).rps;
  }

let print_runs title runs =
  Printf.printf "\n  %s:\n\n" title;
  Util.print_table
    ~columns:
      [
        "point";
        "served";
        "serial (cyc)";
        "critical path (cyc)";
        "attested req/s";
        "sched-only req/s";
      ]
    (List.map
       (fun r ->
         [
           r.label;
           string_of_int r.served;
           string_of_int r.ledger.Serve.serial_cycles;
           string_of_int r.ledger.Serve.critical_cycles;
           Printf.sprintf "%.0f" r.rps;
           Printf.sprintf "%.0f" r.sched_rps;
         ])
       runs)

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
    s.rps_resp s.rps_kvdb s.rps_httpd

(* Fast end-to-end sanity pass, run from `dune build @serve_smoke`: each
   service serves one round over a real AEAD session; any refused or
   failed request is fatal. *)
let smoke () =
  let checks =
    [
      ("resp_kv", (measure_resp ~batch:4 ~seed:991L).served, rounds * 4);
      ("kvdb", (measure_kvdb ~records:32 ~seed:992L).served, rounds * reqs_per_round);
      ( "httpd",
        (measure_httpd ~page_bytes:4096 ~seed:993L).served,
        rounds * reqs_per_round );
    ]
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
  ]
