(* The multi-monitor fleet bench.  Its headline numbers are rows of
   the perf gate (Perf_gate.table, BENCH.json; each doubling of nodes
   also has a hard 1.6x scaling floor):

   - cluster_rps_4x8: aggregate attested req/s over 4 nodes x 8 cores,
     16 tenants sharded by the consistent-hash LB, every request sealed
     under a per-session AEAD key and charged for its wire crossing;
   - scaling 1 -> 2 -> 4 nodes at fixed offered load: each doubling
     must gain at least 1.6x (nodes have independent clocks, so the
     fleet rate is total served over the slowest node's critical path,
     from each plane's Serve.ledger);
   - cluster_p99_upgrade_cycles: p99 per-request simulated cost while a
     rolling monitor upgrade live-migrates every tenant out and home
     again under traffic;
   - cluster_pause_cycles: worst single live-migration pause (source
     export + wire + destination rebuild). *)

open Hyperenclave

let clock_hz = 2.2e9
let cores = 8
let tenants = 16
let rounds = 3
let batch = 8

let tenant_gen () =
  {
    (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
    Backend.handlers = [ (1, fun _env input -> input) ];
  }

let build ~nodes ~seed =
  let cl =
    Cluster.create
      {
        Cluster.default_config with
        Cluster.nodes;
        seed;
        vnodes = 64;
        serve =
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
          };
      }
  in
  let names = List.init tenants (Printf.sprintf "tenant-%d") in
  List.iter (fun name -> ignore (Cluster.add_tenant cl ~name tenant_gen : int)) names;
  let clients =
    List.mapi
      (fun i name ->
        match
          Cluster.Client.connect cl
            ~rng:(Rng.create ~seed:(Int64.add seed (Int64.of_int (100 + i))))
            ~tenant:name ()
        with
        | Ok c -> c
        | Error e ->
            Format.eprintf "bench_cluster: connect %s failed: %a@." name
              Cluster.pp_error e;
            exit 2)
      names
  in
  (cl, clients)

let payload = Bytes.make 64 'x'

(* One batch per client; any rejected request is fatal.  Returns the
   per-call simulated cost samples (all clocks: node work + wire). *)
let drive_round clients =
  List.map
    (fun c ->
      let t0 = Cycles.total_ticked () in
      (match Cluster.Client.call c (List.init batch (fun _ -> (1, payload))) with
      | Ok replies ->
          List.iter
            (function
              | Ok _ -> ()
              | Error r ->
                  Format.eprintf "bench_cluster: request rejected: %a@."
                    Serve.pp_reject r;
                  exit 2)
            replies
      | Error e ->
          Format.eprintf "bench_cluster: call failed: %a@." Cluster.pp_error e;
          exit 2);
      (Cycles.total_ticked () - t0) / batch)
    clients

type rate = {
  rps : float;  (** critical-path basis *)
  sched_rps : float;  (** scheduler-only basis *)
  serial : int;  (** the slowest node's serial plane cycles *)
  critical : int;  (** the slowest node's critical path *)
}

(* Aggregate attested rate: requests served by every node over the
   slowest node's critical path — nodes run on independent simulated
   clocks, so the fleet finishes when its most loaded node does.  The
   scheduler-only rate divides the cores' requests by the slowest node's
   makespan instead. *)
let fleet_rate cl =
  let served = ref 0 and slowest = ref None in
  let requests = ref 0 and makespan = ref 1 in
  List.iter
    (fun n ->
      if Cluster.Node.alive n then begin
        let plane = Cluster.Node.plane n in
        let l = Serve.ledger plane in
        served := !served + l.Serve.served;
        (match !slowest with
        | Some (s : Serve.ledger) when s.critical_cycles >= l.critical_cycles
          ->
            ()
        | Some _ | None -> slowest := Some l);
        let s = Serve.sched_stats plane in
        requests := !requests + s.Sched.total_requests;
        makespan := max !makespan s.Sched.makespan
      end)
    (Cluster.nodes cl);
  let serial, critical =
    match !slowest with
    | Some l -> (l.Serve.serial_cycles, l.Serve.critical_cycles)
    | None -> (0, 0)
  in
  {
    rps = float_of_int !served *. clock_hz /. float_of_int (max 1 critical);
    sched_rps = float_of_int !requests *. clock_hz /. float_of_int !makespan;
    serial;
    critical;
  }

let measure_rate ~nodes ~seed =
  let cl, clients = build ~nodes ~seed in
  for _ = 1 to rounds do
    ignore (drive_round clients : int list)
  done;
  let rate = fleet_rate cl in
  List.iter Cluster.Client.close clients;
  Cluster.destroy cl;
  rate

(* p99 per-request cost while a rolling upgrade migrates every tenant
   out and back under live traffic, plus the worst migration pause. *)
let measure_upgrade ~seed =
  let cl, clients = build ~nodes:4 ~seed in
  let samples = ref (drive_round clients) in
  List.iter
    (fun n ->
      (match Cluster.upgrade_node cl (Cluster.Node.id n) with
      | Ok () -> ()
      | Error e ->
          Format.eprintf "bench_cluster: upgrade failed: %a@." Cluster.pp_error e;
          exit 2);
      samples := drive_round clients @ !samples)
    (Cluster.nodes cl);
  let sorted = List.sort compare !samples in
  let n = List.length sorted in
  let p99 = List.nth sorted (min (n - 1) (n * 99 / 100)) in
  let stats = Cluster.stats cl in
  List.iter Cluster.Client.close clients;
  Cluster.destroy cl;
  (p99, stats.Cluster.max_pause, stats.Cluster.migrations)

type summary = {
  rates_by_nodes : (int * rate) list;
  rps_4x8 : float;
  scaling_1_2 : float;
  scaling_2_4 : float;
  p99_upgrade : int;
  pause : int;
  upgrade_migrations : int;
}

let summarize () =
  let rates_by_nodes =
    List.map (fun nodes -> (nodes, measure_rate ~nodes ~seed:1001L)) [ 1; 2; 4 ]
  in
  let rate n = (List.assoc n rates_by_nodes).rps in
  let p99_upgrade, pause, upgrade_migrations = measure_upgrade ~seed:1002L in
  {
    rates_by_nodes;
    rps_4x8 = rate 4;
    scaling_1_2 = rate 2 /. rate 1;
    scaling_2_4 = rate 4 /. rate 2;
    p99_upgrade;
    pause;
    upgrade_migrations;
  }

let run () =
  Util.set_experiment "cluster";
  Util.banner "Cluster"
    "Fleet-scale attested serving: 4 monitors x 8 cores, 16 tenants \
     behind the consistent-hash LB, live migration and rolling \
     upgrades under traffic on the deterministic network.";
  let s = summarize () in
  Printf.printf "\n  cross-node scaling (fixed offered load, %d tenants):\n\n"
    tenants;
  Util.print_table
    ~columns:
      [
        "nodes";
        "serial (Mcyc)";
        "critical path (Mcyc)";
        "attested req/s";
        "sched-only req/s";
        "scaling vs half";
      ]
    (List.map
       (fun (nodes, r) ->
         [
           string_of_int nodes;
           Printf.sprintf "%.3f" (float_of_int r.serial /. 1e6);
           Printf.sprintf "%.3f" (float_of_int r.critical /. 1e6);
           Printf.sprintf "%.0f" r.rps;
           Printf.sprintf "%.0f" r.sched_rps;
           (if nodes = 1 then "-"
            else
              Printf.sprintf "%.2fx"
                (r.rps /. (List.assoc (nodes / 2) s.rates_by_nodes).rps));
         ])
       s.rates_by_nodes);
  Printf.printf
    "  (serial and critical path: the slowest node's, over which the \
     fleet's served requests are counted)\n";
  Printf.printf
    "\n  rolling upgrade: %d live migrations, p99 request cost %d cycles,\n\
    \  worst migration pause %d cycles (%.1f us at %.1f GHz)\n"
    s.upgrade_migrations s.p99_upgrade s.pause
    (float_of_int s.pause /. clock_hz *. 1e6)
    (clock_hz /. 1e9);
  Printf.printf "\n  headline: %.0f attested req/s at 4 nodes x %d cores\n"
    s.rps_4x8 cores

(* Fast sanity slice for @serve_smoke: two nodes, live migration under
   an open session, everything served. *)
let smoke () =
  let cl, clients = build ~nodes:2 ~seed:1003L in
  ignore (drive_round clients : int list);
  let victim = "tenant-0" in
  let dst = 1 - Cluster.owner cl ~tenant:victim in
  (match Cluster.migrate cl ~tenant:victim ~dst with
  | Ok _ -> ()
  | Error e ->
      Format.eprintf "cluster_smoke: FAIL — migrate: %a@." Cluster.pp_error e;
      exit 1);
  ignore (drive_round clients : int list);
  let bad =
    List.concat_map
      (fun (node, findings) ->
        List.map (fun _ -> node) findings)
      (Cluster.check cl)
  in
  if bad <> [] then begin
    Printf.eprintf "cluster_smoke: FAIL — invariant violations on nodes %s\n"
      (String.concat "," (List.map string_of_int bad));
    exit 1
  end;
  List.iter Cluster.Client.close clients;
  Cluster.destroy cl;
  Printf.printf "cluster_smoke: OK — %d tenants served across migration\n"
    tenants

let headline s =
  [
    ("cluster_rps_4x8", s.rps_4x8);
    ("cluster_scaling_1_2", s.scaling_1_2);
    ("cluster_scaling_2_4", s.scaling_2_4);
    ("cluster_p99_upgrade_cycles", float_of_int s.p99_upgrade);
    ("cluster_pause_cycles", float_of_int s.pause);
  ]
