(* Telemetry substrate (counters, histograms, trace ring) and its
   integration with the monitor's instrumentation. *)

open Hyperenclave

let test_counters () =
  let t = Telemetry.create () in
  Alcotest.(check int) "untouched counter" 0 (Telemetry.counter t "a");
  Telemetry.incr t "a";
  Telemetry.incr t "a";
  Telemetry.add t "b" 40;
  Alcotest.(check int) "incr twice" 2 (Telemetry.counter t "a");
  Alcotest.(check int) "add" 40 (Telemetry.counter t "b");
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Telemetry.add: negative increment") (fun () ->
      Telemetry.add t "b" (-1));
  let snap = Telemetry.snapshot t in
  Alcotest.(check (list (pair string int)))
    "snapshot sorted by name"
    [ ("a", 2); ("b", 40) ]
    snap.Telemetry.counters

let test_histogram_buckets () =
  let t = Telemetry.create () in
  List.iter (Telemetry.observe t "h") [ 0; 1; 2; 3; 4; 1000 ];
  let snap = Telemetry.snapshot t in
  let h = List.assoc "h" snap.Telemetry.histograms in
  Alcotest.(check int) "count" 6 h.Telemetry.count;
  Alcotest.(check int) "sum" 1010 h.Telemetry.sum;
  Alcotest.(check int) "min" 0 h.Telemetry.min;
  Alcotest.(check int) "max" 1000 h.Telemetry.max;
  (* log2 buckets: 0 -> [0], 1 -> [1], 2..3 -> [2], 4 -> [4],
     1000 -> [512]. *)
  Alcotest.(check (list (pair int int)))
    "bucket boundaries"
    [ (0, 1); (1, 1); (2, 2); (4, 1); (512, 1) ]
    h.Telemetry.buckets;
  Alcotest.(check (float 0.01)) "mean" (1010.0 /. 6.0) (Telemetry.mean h)

let test_ring_wraps () =
  let t = Telemetry.create ~ring_capacity:4 () in
  for i = 0 to 9 do
    Telemetry.trace t ~at:(i * 10) ~detail:(string_of_int i) "evt"
  done;
  let snap = Telemetry.snapshot t in
  Alcotest.(check int) "bounded" 4 (List.length snap.Telemetry.events);
  Alcotest.(check (list int))
    "only the most recent survive, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Telemetry.seq) snap.Telemetry.events);
  Alcotest.(check string)
    "details intact" "9"
    (List.nth snap.Telemetry.events 3).Telemetry.detail

let test_delta_counters () =
  let t = Telemetry.create () in
  Telemetry.add t "x" 5;
  Telemetry.add t "y" 1;
  let before = Telemetry.snapshot t in
  Telemetry.add t "x" 3;
  Telemetry.incr t "z";
  let after = Telemetry.snapshot t in
  Alcotest.(check (list (pair string int)))
    "only moved counters, new ones included"
    [ ("x", 3); ("z", 1) ]
    (Telemetry.delta_counters ~before ~after)

let test_json_shape () =
  let t = Telemetry.create () in
  Telemetry.incr t "switch.eenter";
  Telemetry.observe t "cycles.eenter" 1704;
  Telemetry.trace t ~at:7 ~detail:"enclave \"1\"" "eenter";
  let json = Telemetry.to_json (Telemetry.snapshot t) in
  let contains needle =
    let nh = String.length json and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub json i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "counter emitted" true (contains "\"switch.eenter\":1");
  Alcotest.(check bool) "histogram sum" true (contains "\"sum\":1704");
  Alcotest.(check bool)
    "quotes escaped in details" true
    (contains "enclave \\\"1\\\"");
  Alcotest.(check bool) "object shape" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}')

let test_reset () =
  let t = Telemetry.create () in
  Telemetry.incr t "a";
  Telemetry.observe t "h" 3;
  Telemetry.trace t ~at:0 "e";
  Telemetry.reset t;
  let snap = Telemetry.snapshot t in
  Alcotest.(check int) "no counters" 0 (List.length snap.Telemetry.counters);
  Alcotest.(check int) "no histograms" 0 (List.length snap.Telemetry.histograms);
  Alcotest.(check int) "no events" 0 (List.length snap.Telemetry.events)

(* A handle resolves its name on its first bump: until then it creates
   nothing.  It shares the counter [incr] bumps under the same name, and
   after a [reset] an old handle writes into the fresh counter, not the
   dropped one.  Histogram handles follow the same rules. *)
let test_handles () =
  let t = Telemetry.create () in
  let c = Telemetry.counter_handle t "hot" in
  let h = Telemetry.histogram_handle t "hot.cycles" in
  let snap = Telemetry.snapshot t in
  Alcotest.(check int) "a never-bumped handle creates no counter" 0
    (List.length snap.Telemetry.counters);
  Alcotest.(check int) "nor a histogram" 0
    (List.length snap.Telemetry.histograms);
  Telemetry.bump c 2;
  Telemetry.incr t "hot";
  Telemetry.bump c 1;
  Alcotest.(check int) "bump and incr share one counter" 4
    (Telemetry.counter t "hot");
  Telemetry.sample h 8;
  Telemetry.observe t "hot.cycles" 2;
  let count () =
    let snap = Telemetry.snapshot t in
    match List.assoc_opt "hot.cycles" snap.Telemetry.histograms with
    | Some hist -> hist.Telemetry.count
    | None -> 0
  in
  Alcotest.(check int) "sample and observe share one histogram" 2 (count ());
  Telemetry.reset t;
  Telemetry.bump c 5;
  Alcotest.(check int) "an old handle after reset: the post-reset count" 5
    (Telemetry.counter t "hot");
  Telemetry.incr t "hot";
  Alcotest.(check int) "still one counter after reset" 6
    (Telemetry.counter t "hot");
  Telemetry.sample h 3;
  Alcotest.(check int) "an old histogram handle after reset" 1 (count ());
  Alcotest.check_raises "negative bump rejected"
    (Invalid_argument "Telemetry.bump: negative increment") (fun () ->
      Telemetry.bump c (-1))

let test_monitor_counts_match_enclave_stats () =
  (* The monitor-wide counters and the per-enclave stats record are two
     views of the same events; with a single enclave they must agree. *)
  let p = Platform.create ~seed:7100L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) input ->
              ignore (tenv.Tenv.ocall ~id:9 ~data:input Edge.In_out);
              input );
        ]
      ~ocalls:[ (9, fun data -> data) ]
  in
  for _ = 1 to 3 do
    ignore
      (Urts.ecall handle ~id:1 ~data:(Bytes.of_string "x") ~direction:Edge.In_out ())
  done;
  let tel = Monitor.telemetry p.Platform.monitor in
  let stats = Urts.stats handle in
  Alcotest.(check int) "sdk.ecall" 3 (Telemetry.counter tel "sdk.ecall");
  Alcotest.(check int) "sdk.ocall vs stats" stats.Enclave.ocalls
    (Telemetry.counter tel "sdk.ocall");
  (* Each ECALL is one EENTER/EEXIT pair; each OCALL adds one more of
     each (exit to the handler, re-enter after). *)
  Alcotest.(check int)
    "eenter = ecalls + ocalls"
    (Telemetry.counter tel "sdk.ecall" + stats.Enclave.ocalls)
    (Telemetry.counter tel "switch.eenter");
  Alcotest.(check int)
    "eexit matches eenter"
    (Telemetry.counter tel "switch.eenter")
    (Telemetry.counter tel "switch.eexit");
  Alcotest.(check int) "no AEX in this run" 0
    (Telemetry.counter tel "switch.aex");
  (* Cycle histograms carry one sample per switch. *)
  let snap = Telemetry.snapshot tel in
  let eenter_hist = List.assoc "cycles.eenter" snap.Telemetry.histograms in
  Alcotest.(check int)
    "one eenter sample per switch"
    (Telemetry.counter tel "switch.eenter")
    eenter_hist.Telemetry.count;
  Alcotest.(check bool) "samples non-trivial" true (eenter_hist.Telemetry.min > 0);
  Urts.destroy handle

let suite =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "trace ring wraps" `Quick test_ring_wraps;
    Alcotest.test_case "delta counters" `Quick test_delta_counters;
    Alcotest.test_case "JSON rendering" `Quick test_json_shape;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "counter and histogram handles" `Quick test_handles;
    Alcotest.test_case "monitor counters vs enclave stats" `Quick
      test_monitor_counts_match_enclave_stats;
  ]
