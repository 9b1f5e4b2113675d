(* Workload correctness: the kernels really compute, the parsers really
   parse, the B-tree keeps its invariants, YCSB draws a sane zipfian. *)

open Hyperenclave
module W = Hyperenclave.Workloads

let native_backend handlers ocalls =
  Backend.native ~clock:(Cycles.create ()) ~cost:Cost_model.default
    ~rng:(Rng.create ~seed:1L) ~handlers ~ocalls

(* --- NBench ------------------------------------------------------------------- *)

let test_nbench_all_kernels () =
  let backend = native_backend (W.Nbench.handlers ()) [] in
  (* Every kernel contains internal assertions (sortedness, balanced
     parens, finite results...); running them is the test. *)
  List.iteri
    (fun index name ->
      let cycles = W.Nbench.run_kernel backend ~index ~iterations:1 in
      Alcotest.(check bool) (name ^ " consumed cycles") true (cycles > 0))
    W.Nbench.kernel_names;
  Alcotest.(check int) "ten kernels" 10 W.Nbench.kernel_count

(* --- YCSB ------------------------------------------------------------------------ *)

let test_ycsb_zipfian () =
  let gen = W.Ycsb.create ~rng:(Rng.create ~seed:2L) ~records:1000 () in
  let counts = Hashtbl.create 256 in
  let samples = 20_000 in
  for _ = 1 to samples do
    let key = W.Ycsb.next_key gen in
    Alcotest.(check bool) "key in range" true (key >= 0 && key < 1000);
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  (* Zipf: the top key should be dramatically hotter than the uniform
     expectation of samples/records = 20. *)
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool)
    (Printf.sprintf "hottest key frequency %d >> uniform 20" hottest)
    true (hottest > 200);
  (* Workload A is a fair read/update mix. *)
  let reads = ref 0 in
  for _ = 1 to samples do
    match W.Ycsb.next_op_a gen with
    | W.Ycsb.Read _ -> incr reads
    | W.Ycsb.Update _ | W.Ycsb.Scan _ -> ()
  done;
  let ratio = float_of_int !reads /. float_of_int samples in
  Alcotest.(check bool)
    (Printf.sprintf "50/50 mix (%.2f)" ratio)
    true
    (ratio > 0.45 && ratio < 0.55)

(* --- B-tree ---------------------------------------------------------------------- *)

let make_btree () =
  let t = W.Btree.create ~addr_base:0x1000 ~record_bytes:64 in
  for key = 0 to 999 do
    W.Btree.insert t ~key (Bytes.of_string (Printf.sprintf "v%d" key))
  done;
  t

let test_btree_basics () =
  let t = make_btree () in
  Alcotest.(check int) "size" 1000 (W.Btree.size t);
  W.Btree.check_invariants t;
  for key = 0 to 999 do
    match W.Btree.find t ~key with
    | Some v ->
        Alcotest.(check string)
          "stored value" (Printf.sprintf "v%d" key) (Bytes.to_string v)
    | None -> Alcotest.failf "key %d missing" key
  done;
  Alcotest.(check bool) "absent key" true (W.Btree.find t ~key:5000 = None);
  Alcotest.(check bool) "depth grew" true (W.Btree.depth t >= 2);
  Alcotest.(check bool)
    "update" true
    (W.Btree.update t ~key:7 (Bytes.of_string "fresh"));
  Alcotest.(check string)
    "updated value" "fresh"
    (Bytes.to_string (Option.get (W.Btree.find t ~key:7)));
  Alcotest.(check bool)
    "update absent" false
    (W.Btree.update t ~key:123456 (Bytes.of_string "x"));
  Alcotest.(check bool)
    "touch trace non-empty" true
    (W.Btree.touched t > 0)

let btree_qcheck =
  let open QCheck in
  Test.make ~name:"btree holds every inserted key and stays valid" ~count:50
    (list_of_size (Gen.int_bound 400) (int_bound 10_000))
    (fun keys ->
      let t = W.Btree.create ~addr_base:0x1000 ~record_bytes:64 in
      List.iter
        (fun key -> W.Btree.insert t ~key (Bytes.of_string (string_of_int key)))
        keys;
      W.Btree.check_invariants t;
      List.for_all
        (fun key ->
          match W.Btree.find t ~key with
          | Some v -> Bytes.to_string v = string_of_int key
          | None -> false)
        keys
      && W.Btree.size t = List.length (List.sort_uniq compare keys))

let test_kvdb_engine () =
  let e = W.Kvdb.Engine.create () in
  let exec s =
    match W.Kvdb.Engine.exec e s with
    | Result.Ok v -> v
    | Result.Error m -> Alcotest.failf "SQL error on %S: %s" s m
  in
  Alcotest.(check string) "insert" "ok" (exec "INSERT INTO kv VALUES (1, 'one')");
  Alcotest.(check string) "select" "one" (exec "SELECT v FROM kv WHERE k = 1");
  Alcotest.(check string) "update" "ok" (exec "UPDATE kv SET v = 'uno' WHERE k = 1");
  Alcotest.(check string) "select updated" "uno" (exec "SELECT v FROM kv WHERE k = 1");
  (match W.Kvdb.Engine.exec e "SELECT v FROM kv WHERE k = 999" with
  | Result.Error "not found" -> ()
  | Result.Error other -> Alcotest.failf "unexpected error %s" other
  | Result.Ok _ -> Alcotest.fail "missing key should fail");
  (match W.Kvdb.Engine.exec e "DROP TABLE kv" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "unsupported SQL should fail")

let test_kvdb_workload () =
  let backend = native_backend (W.Kvdb.handlers ()) [] in
  let load_cycles = W.Kvdb.load backend ~records:500 in
  Alcotest.(check bool) "load charged" true (load_cycles > 0);
  let run_cycles = W.Kvdb.run_ops backend ~records:500 ~ops:200 in
  Alcotest.(check bool) "ops charged" true (run_cycles > 0);
  Alcotest.(check bool)
    "throughput sane" true
    (W.Kvdb.throughput_kops ~cycles:run_cycles ~ops:200 > 0.0)

(* --- HTTP ------------------------------------------------------------------------- *)

let test_http_parser () =
  (match W.Httpd.parse_request "GET /index.html HTTP/1.1\nhost: x\n" with
  | Result.Ok r ->
      Alcotest.(check string) "method" "GET" r.W.Httpd.meth;
      Alcotest.(check string) "path" "/index.html" r.W.Httpd.path;
      Alcotest.(check (list (pair string string)))
        "headers"
        [ ("host", "x") ]
        r.W.Httpd.headers
  | Result.Error e -> Alcotest.fail e);
  (match W.Httpd.parse_request "BOGUS" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "malformed request accepted");
  match W.Httpd.parse_request "GET /x SPDY/9\n" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "bad version accepted"

let test_http_serving () =
  let backend =
    native_backend
      (W.Httpd.handlers ~pages:[ ("/a.html", 10_000) ])
      (W.Httpd.ocalls ())
  in
  let cycles = W.Httpd.serve backend ~path:"/a.html" in
  Alcotest.(check bool) "request charged" true (cycles > 0);
  (* 404 and parse errors surface as failures. *)
  match W.Httpd.serve backend ~path:"/missing.html" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "404 should raise"

(* --- RESP -------------------------------------------------------------------------- *)

let test_resp_parser () =
  (match W.Resp_kv.parse_resp "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nvv\r\n" with
  | Result.Ok parts ->
      Alcotest.(check (list string)) "parts" [ "SET"; "k"; "vv" ] parts
  | Result.Error e -> Alcotest.fail e);
  let pipeline =
    Bytes.to_string
      (Bytes.cat
         (W.Resp_kv.encode_command [ "GET"; "a" ])
         (W.Resp_kv.encode_command [ "GET"; "b" ]))
  in
  (match W.Resp_kv.parse_pipeline pipeline with
  | Result.Ok [ [ "GET"; "a" ]; [ "GET"; "b" ] ] -> ()
  | Result.Ok other ->
      Alcotest.failf "unexpected pipeline: %d commands" (List.length other)
  | Result.Error e -> Alcotest.fail e);
  (match W.Resp_kv.parse_resp "*2\r\n$3\r\nGET\r\n$100\r\nshort\r\n" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "truncated bulk accepted");
  match W.Resp_kv.parse_resp "+inline\r\n" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "non-array accepted"

let test_resp_server () =
  let backend = native_backend (W.Resp_kv.handlers ()) (W.Resp_kv.ocalls ()) in
  W.Resp_kv.load backend ~records:50;
  let cycles = W.Resp_kv.op backend (W.Ycsb.Read 7) in
  Alcotest.(check bool) "get charged" true (cycles > 0);
  let s = W.Resp_kv.service_time backend ~records:50 ~samples:100 in
  Alcotest.(check bool) "service time positive" true (s > 0.0);
  let curve =
    W.Resp_kv.latency_curve ~service_cycles:s ~offered_kops:[ 0.001; 1e9 ]
  in
  (match curve with
  | [ (_, Some low_latency); (_, None) ] ->
      Alcotest.(check bool)
        "unloaded latency ~ service time" true
        (low_latency > 0.0)
  | _ -> Alcotest.fail "curve shape");
  ()

(* --- virtualization-overhead workloads ----------------------------------------------- *)

let test_lmbench_small_overhead () =
  let p = Platform.create ~seed:6000L () in
  let results = W.Lmbench.run p ~iterations:10 () in
  Alcotest.(check int) "six rows" 6 (List.length results);
  List.iter
    (fun (r : W.Lmbench.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s overhead %.1f%% < 10%%" r.W.Lmbench.name
           r.W.Lmbench.overhead_pct)
        true
        (r.W.Lmbench.overhead_pct < 10.0 && r.W.Lmbench.overhead_pct > -5.0))
    results

let test_spec_small_overhead () =
  let p = Platform.create ~seed:6001L () in
  let results = W.Spec_cpu.run p in
  Alcotest.(check int) "nine kernels" 9 (List.length results);
  List.iter
    (fun (r : W.Spec_cpu.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s overhead %.2f%% < 3%%" r.W.Spec_cpu.name
           r.W.Spec_cpu.overhead_pct)
        true
        (r.W.Spec_cpu.overhead_pct < 3.0))
    results

let test_kernel_build () =
  let p = Platform.create ~seed:6002L () in
  let r = W.Kernel_build.run p ~files:8 () in
  Alcotest.(check bool) "built" true (r.W.Kernel_build.native_cycles > 0);
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.2f%% < 3%%" r.W.Kernel_build.overhead_pct)
    true
    (r.W.Kernel_build.overhead_pct < 3.0)

let test_memlat_shapes () =
  let sizes = [ 1 lsl 20; 64 lsl 20 ] in
  let series engine pattern =
    W.Memlat.series ~cost:Cost_model.default ~engine ~pattern ~sizes
  in
  let plain = series Hw.Mem_crypto.Plain `Seq in
  let sme = series Hw.Mem_crypto.Sme `Seq in
  let overheads = W.Memlat.overhead_vs ~baseline:plain sme in
  (match overheads with
  | [ (_, small); (_, big) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "in-LLC %.2fx ~ 1, beyond %.2fx > 1.5" small big)
        true
        (small < 1.2 && big > 1.5)
  | _ -> Alcotest.fail "unexpected series length");
  ()

let test_timer_counts () =
  let clock = Cycles.create () in
  let fired = ref 0 in
  let backend =
    Backend.native ~clock ~cost:Cost_model.default ~rng:(Rng.create ~seed:1L)
      ~handlers:
        [
          ( 1,
            fun (env : Backend.env) _ ->
              let timer = W.Timer.create ~period:100_000 env in
              for _ = 1 to 10 do
                env.Backend.compute 25_000;
                W.Timer.check timer env
              done;
              fired := W.Timer.fired timer;
              Bytes.empty );
        ]
      ~ocalls:[]
  in
  ignore (backend.Backend.call ~id:1 ~direction:Edge.In ());
  (* 250k cycles of work at one tick per 100k cycles, where servicing a
     tick itself costs ~8.7k cycles: two to four ticks. *)
  Alcotest.(check bool)
    (Printf.sprintf "ticks proportional to elapsed time (%d)" !fired)
    true
    (!fired >= 2 && !fired <= 4)

let test_kvdb_misuse () =
  let backend = native_backend (W.Kvdb.handlers ()) [] in
  (* Running ops before load must fail loudly, not invent a database. *)
  (match W.Kvdb.run_ops backend ~records:10 ~ops:1 with
  | _ -> Alcotest.fail "run before load accepted"
  | exception Invalid_argument _ -> ());
  ignore (W.Kvdb.load backend ~records:10);
  ignore (W.Kvdb.run_ops backend ~records:10 ~ops:5)

let test_httpd_method_and_errors () =
  let backend =
    native_backend (W.Httpd.handlers ~pages:[ ("/i.html", 100) ]) (W.Httpd.ocalls ())
  in
  (* non-GET and 404 come back as HTTP errors through the same path *)
  let raw_call data =
    Bytes.to_string
      (backend.Backend.call ~id:W.Httpd.ecall_request ~data ~direction:Edge.In_out ())
  in
  Alcotest.(check bool)
    "405 for POST" true
    (String.length (raw_call (Bytes.of_string "POST /i.html HTTP/1.1\n")) >= 12
    && String.sub (raw_call (Bytes.of_string "POST /i.html HTTP/1.1\n")) 9 3 = "405");
  Alcotest.(check string)
    "400 for garbage" "400"
    (String.sub (raw_call (Bytes.of_string "NOT-HTTP")) 9 3)

let test_resp_commands () =
  let backend = native_backend (W.Resp_kv.handlers ()) (W.Resp_kv.ocalls ()) in
  let call parts =
    Bytes.to_string
      (backend.Backend.call ~id:W.Resp_kv.ecall_command
         ~data:(W.Resp_kv.encode_command parts) ~direction:Edge.In_out ())
  in
  Alcotest.(check string) "set" "+OK" (call [ "SET"; "k"; "v" ]);
  Alcotest.(check string) "dbsize" "+1" (call [ "DBSIZE" ]);
  Alcotest.(check bool)
    "get returns bulk" true
    (String.length (call [ "GET"; "k" ]) > 0 && (call [ "GET"; "k" ]).[0] = '$');
  Alcotest.(check string) "missing key" "$-1\n" (call [ "GET"; "absent" ]);
  Alcotest.(check bool)
    "unknown command errors" true
    (String.length (call [ "FLUSHALL" ]) > 0 && (call [ "FLUSHALL" ]).[0] = '-')

let test_spec_kernel_names () =
  Alcotest.(check int) "nine names" 9 (List.length W.Spec_cpu.kernel_names);
  Alcotest.(check bool)
    "SPEC ids present" true
    (List.for_all
       (fun n -> String.length n > 4 && n.[3] = '.')
       W.Spec_cpu.kernel_names)

(* --- PR 9 additions: parser bounds, YCSB B/C mixes, range scans ---------- *)

let test_resp_parser_bounds () =
  let expect_error label raw =
    match W.Resp_kv.parse_resp raw with
    | Result.Error _ -> ()
    | Result.Ok _ -> Alcotest.fail (label ^ ": accepted malformed input")
  in
  (* Every one of these must come back as a typed parse error — never an
     exception out of the dispatch loop (a malicious tenant reaches this
     parser through the attested plane). *)
  expect_error "negative bulk length" "*1\r\n$-5\r\nhello\r\n";
  expect_error "truncated bulk" "*1\r\n$5\r\nab\r\n";
  expect_error "over-declared length" "*2\r\n$3\r\nfoo\r\n$100\r\nbar\r\n";
  expect_error "missing CRLF terminator" "*1\r\n$3\r\nabcXY";
  expect_error "huge declared length (no overflow)"
    (Printf.sprintf "*1\r\n$%d\r\nx\r\n" max_int);
  expect_error "truncated header" "*2\r\n$3\r\nfoo";
  (* CRLF verification: payload of the right length but the terminator
     overwritten. *)
  expect_error "corrupt terminator" "*1\r\n$3\r\nabc\r,";
  (* And the happy path still parses. *)
  match W.Resp_kv.parse_resp "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n" with
  | Result.Ok [ "GET"; "k" ] -> ()
  | Result.Ok _ | Result.Error _ -> Alcotest.fail "well-formed command rejected"

let test_ycsb_mixes () =
  let gen = W.Ycsb.create ~rng:(Rng.create ~seed:31L) ~records:1000 () in
  let samples = 10_000 in
  let reads = ref 0 in
  for _ = 1 to samples do
    match W.Ycsb.next_op_b gen with
    | W.Ycsb.Read _ -> incr reads
    | W.Ycsb.Update _ | W.Ycsb.Scan _ -> ()
  done;
  let ratio = float_of_int !reads /. float_of_int samples in
  Alcotest.(check bool)
    (Printf.sprintf "B is 95/5 (%.3f)" ratio)
    true
    (ratio > 0.93 && ratio < 0.97);
  for _ = 1 to 1000 do
    (match W.Ycsb.next_op_c gen with
    | W.Ycsb.Read _ -> ()
    | W.Ycsb.Update _ | W.Ycsb.Scan _ -> Alcotest.fail "C must be read-only");
    match W.Ycsb.next_scan gen ~max_len:8 () with
    | W.Ycsb.Scan (key, len) ->
        Alcotest.(check bool) "scan anchor in range" true (key >= 0 && key < 1000);
        Alcotest.(check bool) "scan length in [1,8]" true (len >= 1 && len <= 8)
    | W.Ycsb.Read _ | W.Ycsb.Update _ -> Alcotest.fail "next_scan must scan"
  done

let test_btree_scan () =
  let t = W.Btree.create ~addr_base:0x1000 ~record_bytes:64 in
  for key = 0 to 199 do
    W.Btree.insert t ~key (Bytes.of_string (Printf.sprintf "v%03d" key))
  done;
  W.Btree.check_invariants t;
  let got = W.Btree.scan t ~lo:17 ~count:5 in
  Alcotest.(check (list int)) "five keys from 17" [ 17; 18; 19; 20; 21 ]
    (List.map fst got);
  Alcotest.(check string) "values ride along" "v019"
    (Bytes.to_string (List.assoc 19 got));
  Alcotest.(check bool) "scan touches nodes for the memory simulator" true
    (W.Btree.touched t > 0);
  Alcotest.(check (list int)) "scan past the end is empty" []
    (List.map fst (W.Btree.scan t ~lo:500 ~count:4));
  Alcotest.(check int) "short scan at the tail" 2
    (List.length (W.Btree.scan t ~lo:198 ~count:10))

let test_kvdb_between () =
  let e = W.Kvdb.Engine.create () in
  for key = 0 to 49 do
    match
      W.Kvdb.Engine.exec e
        (Printf.sprintf "INSERT INTO kv VALUES (%d, 'r%d')" key key)
    with
    | Result.Ok _ -> ()
    | Result.Error m -> Alcotest.fail m
  done;
  (match W.Kvdb.Engine.exec e "SELECT v FROM kv WHERE k BETWEEN 10 AND 14" with
  | Result.Ok reply -> Alcotest.(check string) "inclusive range" "5 rows" reply
  | Result.Error m -> Alcotest.fail m);
  (match W.Kvdb.Engine.exec e "SELECT v FROM kv WHERE k BETWEEN 100 AND 200" with
  | Result.Ok reply -> Alcotest.(check string) "empty range" "0 rows" reply
  | Result.Error m -> Alcotest.fail m);
  match W.Kvdb.Engine.exec e "SELECT v FROM kv WHERE k BETWEEN 9 AND 2" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "inverted range must be a typed error"

let suite =
  [
    QCheck_alcotest.to_alcotest btree_qcheck;
    Alcotest.test_case "resp parser bounds" `Quick test_resp_parser_bounds;
    Alcotest.test_case "ycsb B/C mixes + scans" `Quick test_ycsb_mixes;
    Alcotest.test_case "btree range scan" `Quick test_btree_scan;
    Alcotest.test_case "kvdb BETWEEN scan" `Quick test_kvdb_between;
    Alcotest.test_case "timer counts" `Quick test_timer_counts;
    Alcotest.test_case "kvdb misuse" `Quick test_kvdb_misuse;
    Alcotest.test_case "httpd errors" `Quick test_httpd_method_and_errors;
    Alcotest.test_case "resp commands" `Quick test_resp_commands;
    Alcotest.test_case "spec kernel names" `Quick test_spec_kernel_names;
    Alcotest.test_case "nbench kernels" `Quick test_nbench_all_kernels;
    Alcotest.test_case "ycsb zipfian" `Quick test_ycsb_zipfian;
    Alcotest.test_case "btree basics" `Quick test_btree_basics;
    Alcotest.test_case "kvdb engine SQL" `Quick test_kvdb_engine;
    Alcotest.test_case "kvdb workload" `Quick test_kvdb_workload;
    Alcotest.test_case "http parser" `Quick test_http_parser;
    Alcotest.test_case "http serving" `Quick test_http_serving;
    Alcotest.test_case "resp parser" `Quick test_resp_parser;
    Alcotest.test_case "resp server" `Quick test_resp_server;
    Alcotest.test_case "lmbench overhead" `Slow test_lmbench_small_overhead;
    Alcotest.test_case "spec overhead" `Slow test_spec_small_overhead;
    Alcotest.test_case "kernel build" `Slow test_kernel_build;
    Alcotest.test_case "memlat shapes" `Slow test_memlat_shapes;
  ]
