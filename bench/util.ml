(* Shared helpers for the benchmark harness: table rendering, CSV
   emission, small statistics over simulated-cycle samples, and the one
   way the serving benches build, attest and drive the plane. *)

open Hyperenclave

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

(* --- the attested serving plane (lib/serve) ----------------------------- *)

(* Serving rate at the paper's 2.2 GHz, on the critical-path basis:
   requests served over the plane ledger's critical path, so serial plane
   work counts. *)
let clock_hz = 2.2e9

let critical_rps (l : Serve.ledger) =
  float_of_int l.served *. clock_hz /. float_of_int (max 1 l.critical_cycles)

(* The columns every serving table shares, and one ledger's cells. *)
let ledger_columns =
  [ "served"; "serial (cyc)"; "critical path (cyc)"; "attested req/s" ]

let ledger_cells (l : Serve.ledger) =
  [
    string_of_int l.served;
    string_of_int l.serial_cycles;
    string_of_int l.critical_cycles;
    Printf.sprintf "%.0f" (critical_rps l);
  ]

let fail what step r =
  Format.eprintf "%s: %s failed: %a@." what step Serve.pp_reject r;
  exit 2

(* The configuration the serving benches share: batch 16, failed
   requests dropped rather than retried, 256 queued requests. *)
let serve_config ~cores =
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

let plane ~seed config =
  let p = Platform.create ~seed () in
  (p, Serve.create_node ~platform:p @@ Serve.Node_config.v ~platform:p config)

let golden_of (p : Platform.t) =
  Verifier.golden_of_boot_log
    ~ek_public:(Tpm.ek_public p.Platform.tpm)
    (Monitor.boot_log p.Platform.monitor)

(* A GU enclave tenant serving [handlers], measured under its own name;
   returns its identity. *)
let tenant plane ~name handlers =
  let backend =
    Serve.add_tenant plane ~name
      {
        (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
        Backend.handlers;
        code_seed = Some name;
      }
  in
  Option.get backend.Backend.identity

(* A client verifying against [golden], pinned to the identity [pin]
   when given. *)
let client ~golden ~seed ?pin () =
  Serve.Client.create ~rng:(Rng.create ~seed) ~golden
    ~policy:
      {
        Verifier.expected_mrenclave = pin;
        expected_mrsigner = None;
        allow_debug = false;
      }
    ?expected_tenant:pin ()

(* The handshake and key establishment of [client] with [tenant]. *)
let establish ~what plane ~tenant client =
  match Serve.handshake plane ~tenant (Serve.Client.hello client) with
  | Error r -> fail what "handshake" r
  | Ok accept -> (
      match Serve.Client.establish client accept with
      | Ok () -> ()
      | Error r -> fail what "establish" r)

(* An attested client of [tenant], pinned to the identity [pin] when
   given: the handshake and key establishment, timed on the platform
   clock.  Returns the client and the handshake's cycles. *)
let attest ~what (p : Platform.t) plane ~tenant ~seed ?pin () =
  let client = client ~golden:(golden_of p) ~seed ?pin () in
  let before = Cycles.now p.Platform.clock in
  establish ~what plane ~tenant client;
  (client, Cycles.now p.Platform.clock - before)

(* One serving round: submit [reqs] in order and flush.  Any rejected
   or failed request is fatal. *)
let round ~what plane reqs =
  List.iter
    (fun req ->
      match Serve.submit plane req with
      | Ok () -> ()
      | Error r -> fail what "submit" r)
    reqs;
  let replies = Serve.flush plane in
  List.iter
    (fun (reply : Serve.reply) ->
      match reply.r_result with Ok _ -> () | Error r -> fail what "request" r)
    replies;
  replies
