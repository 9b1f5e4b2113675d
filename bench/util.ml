(* Shared helpers for the benchmark harness: table rendering, CSV
   emission, and small statistics over simulated-cycle samples. *)

(* CSV mirroring (the artifact ships plotting scripts; `--csv DIR` makes
   every printed table also land as a data file). *)
let csv_dir : string option ref = ref None
let csv_experiment = ref "experiment"
let csv_counter = ref 0

let set_csv_dir dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  csv_dir := Some dir

let set_experiment name =
  csv_experiment := name;
  csv_counter := 0

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let write_csv ~columns rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      incr csv_counter;
      let path =
        Filename.concat dir
          (Printf.sprintf "%s_%d.csv" !csv_experiment !csv_counter)
      in
      let oc = open_out path in
      let emit cells =
        output_string oc (String.concat "," (List.map csv_escape cells));
        output_char oc '\n'
      in
      emit columns;
      List.iter emit rows;
      close_out oc

let banner title description =
  Printf.printf "\n=== %s ===\n%s\n\n" title description

let print_table ~columns rows =
  write_csv ~columns rows;
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun acc row ->
            match List.nth_opt row i with
            | Some cell -> max acc (String.length cell)
            | None -> acc)
          (String.length col) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell ->
        let width = List.nth widths i in
        if i = 0 then Printf.printf "  %-*s" width cell
        else Printf.printf "  %*s" width cell)
      cells;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let median samples =
  let sorted = List.sort compare samples in
  List.nth sorted (List.length sorted / 2)

let mean samples =
  float_of_int (List.fold_left ( + ) 0 samples) /. float_of_int (List.length samples)

(* Serving rates at the paper's 2.2 GHz.  The attested rate is on the
   critical-path basis: requests served over the plane ledger's critical
   path, so serial plane work counts.  The scheduler-only rate divides by
   the slowest core's clock alone, the basis earlier headlines used. *)
let clock_hz = 2.2e9

let critical_rps (l : Hyperenclave.Serve.ledger) =
  float_of_int l.served *. clock_hz /. float_of_int (max 1 l.critical_cycles)

let sched_only_rps (s : Hyperenclave.Sched.stats) =
  float_of_int s.total_requests *. clock_hz /. float_of_int (max 1 s.makespan)

let pct x = Printf.sprintf "%.1f%%" x
let cyc n = Printf.sprintf "%d" n
let fcyc f = Printf.sprintf "%.0f" f

let human_bytes n =
  if n >= 1024 * 1024 then Printf.sprintf "%d MB" (n / 1024 / 1024)
  else if n >= 1024 then Printf.sprintf "%d KB" (n / 1024)
  else Printf.sprintf "%d B" n

let note fmt = Printf.printf fmt

(* Per-phase telemetry deltas: wrap a bench phase, diff the monitor's
   counters across it, and print whatever moved.  Deltas only — earlier
   phases (enclave build, warm-up) don't pollute the numbers. *)
let with_phase_deltas telemetry ~phase f =
  let before = Hyperenclave.Telemetry.snapshot telemetry in
  let result = f () in
  let after = Hyperenclave.Telemetry.snapshot telemetry in
  (match Hyperenclave.Telemetry.delta_counters ~before ~after with
  | [] -> ()
  | deltas ->
      Printf.printf "\n  telemetry deltas — %s:\n" phase;
      List.iter
        (fun (name, d) -> Printf.printf "    %-28s %+10d\n" name d)
        deltas);
  result
