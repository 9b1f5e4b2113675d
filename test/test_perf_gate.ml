(* The perf gate's evaluator (bench/perf_gate.ml) on synthetic rows and
   numbers: no bench is run, so this stays well under a second. *)

open Perf_gate

let path = "BENCH.json"
let baseline fields =
  ("schema", Str schema) :: List.map (fun (k, v) -> (k, Num v)) fields

let sim ?bar key better = { key; better; tol = 0.25; bar; host = false }

let run ?(rows = [ sim "x" Higher ]) fields measured =
  evaluate ~path ~rows ~baseline:(baseline fields) measured

let contains line sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length line && (String.sub line i n = sub || go (i + 1))
  in
  go 0

let check_code what want (code, lines) =
  Alcotest.(check int) (what ^ ": " ^ String.concat " | " lines) want code

let check_says what sub (_, lines) =
  Alcotest.(check bool) (what ^ " says " ^ sub) true
    (List.exists (fun l -> contains l sub) lines)

(* The serve gate's 2-core and the zero-copy gate's 8-core baselines as
   committed before the single table, against what the plane measures
   now: the old one-sided gates passed them at 0.50x and 0.65x; the real
   table rows fail them as improvements. *)
let test_stale_baselines () =
  let rows =
    List.filter
      (fun r -> r.key = "attested_rps_2core" || r.key = "attested_rps_8core")
      table
  in
  let v =
    run ~rows
      [ ("attested_rps_2core", 844165.2); ("attested_rps_8core", 4405369.0) ]
      [ ("attested_rps_2core", 1702128.0); ("attested_rps_8core", 6808511.0) ]
  in
  check_code "stale baselines" 1 v;
  Alcotest.(check int)
    "both rows flagged" 2
    (List.length
       (List.filter (fun l -> contains l "unexplained improvement") (snd v)))

let test_regression_band () =
  let higher = [ ("x", 100.0) ] in
  check_code "26% below" 1 (run higher [ ("x", 100.0 /. 1.26) ]);
  check_says "26% below" "worse than the baseline" (run higher [ ("x", 74.0) ]);
  check_code "24% below" 0 (run higher [ ("x", 100.0 /. 1.24) ]);
  check_code "24% above" 0 (run higher [ ("x", 124.0) ]);
  let lower = [ sim "y" Lower ] in
  check_code "26% more cycles" 1
    (run ~rows:lower [ ("y", 100.0) ] [ ("y", 126.0) ]);
  check_code "26% fewer cycles" 1
    (run ~rows:lower [ ("y", 100.0) ] [ ("y", 100.0 /. 1.26) ])

let test_absolute_bars () =
  let floor = [ sim "speedup" Higher ~bar:1.6 ] in
  let v = run ~rows:floor [ ("speedup", 1.7) ] [ ("speedup", 1.59) ] in
  check_code "under the floor, inside the band" 1 v;
  check_says "under the floor" "absolute floor" v;
  let ceiling = [ sim "ratio" Lower ~bar:0.1 ] in
  let v = run ~rows:ceiling [ ("ratio", 0.095) ] [ ("ratio", 0.11) ] in
  check_code "over the ceiling, inside the band" 1 v;
  check_says "over the ceiling" "absolute ceiling" v

let test_missing_and_stray_keys () =
  let v = run [] [ ("x", 1.0) ] in
  check_code "missing key" 2 v;
  check_says "missing key" "perf_smoke.exe --write BENCH.json" v;
  check_code "key without a row" 2
    (run [ ("x", 1.0); ("old", 2.0) ] [ ("x", 1.0) ]);
  check_code "row without a measurement" 2 (run [ ("x", 1.0) ] []);
  check_code "wrong schema" 2
    (evaluate ~path ~rows:[ sim "x" Higher ]
       ~baseline:[ ("schema", Str "hyperenclave-perf/1"); ("x", Num 1.0) ]
       [ ("x", 1.0) ])

let test_host_row_one_sided () =
  let rows =
    [ { key = "wall"; better = Lower; tol = 0.5; bar = None; host = true } ]
  in
  check_code "3x faster host" 0
    (run ~rows [ ("wall", 0.15) ] [ ("wall", 0.05) ]);
  check_code "1.6x slower host" 1
    (run ~rows [ ("wall", 0.15) ] [ ("wall", 0.24) ])

(* A fresh baseline passes its own check, and re-baselining keeps the
   committed host row instead of one new sample. *)
let test_write_then_check () =
  let file = Filename.temp_file "bench" ".json" in
  Sys.remove file;
  let passing r =
    match (r.bar, r.better) with
    | _ when r.host -> None
    | Some bar, Higher -> Some (2.0 *. bar)
    | Some bar, Lower -> Some (bar /. 2.0)
    | None, _ -> Some 1.5
  in
  let measured wall =
    List.map (fun r -> (r.key, Option.value ~default:wall (passing r))) table
  in
  write ~path:file (measured 0.2);
  write ~path:file (measured 0.1);
  let committed = read file in
  Alcotest.(check (option (float 0.0)))
    "host row kept" (Some 0.2)
    (number committed "perf_smoke_wall_seconds");
  check_code "own baseline" 0
    (evaluate ~path:file ~rows:table ~baseline:committed (measured 0.1));
  Sys.remove file

(* The committed BENCH.json and the gate table name the same rows: the
   baseline's own numbers, measured against it, pass with no stray key
   and no unmeasured row. *)
let test_committed_baseline () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "../BENCH.json"
  in
  let baseline = read path in
  let measured =
    List.filter_map
      (function key, Num v -> Some (key, v) | _, Str _ -> None)
      baseline
  in
  let v = evaluate ~path ~rows:table ~baseline measured in
  check_code "committed baseline" 0 v;
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("no line says " ^ sub) false
        (List.exists (fun l -> contains l sub) (snd v)))
    [ "has no gate row"; "nothing measured" ]

let suite =
  [
    Alcotest.test_case "stale baselines fail as improvements" `Quick
      test_stale_baselines;
    Alcotest.test_case "25% band, both directions" `Quick test_regression_band;
    Alcotest.test_case "floor and ceiling" `Quick test_absolute_bars;
    Alcotest.test_case "missing and stray keys exit 2" `Quick
      test_missing_and_stray_keys;
    Alcotest.test_case "host row is one-sided" `Quick test_host_row_one_sided;
    Alcotest.test_case "write then check" `Quick test_write_then_check;
    Alcotest.test_case "BENCH.json matches the table" `Quick
      test_committed_baseline;
  ]
