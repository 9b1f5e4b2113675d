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
     export + wire + destination rebuild);
   - migration_minor_words: host allocation of one live migration.

   Beside the rolling-upgrade p99 it prints the wire traffic per call
   and per migration, from Netsim's message and byte counters. *)

open Hyperenclave

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
        serve = Util.serve_config ~cores;
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

(* Every simulated cycle of the fleet, counted once: the node platform
   clocks, which carry the scheduler slices too, plus what the wire
   charged. *)
let fleet_cycles cl =
  List.fold_left
    (fun acc n -> acc + Cycles.now (Cluster.Node.platform n).Platform.clock)
    0 (Cluster.nodes cl)
  + (Netsim.stats (Cluster.net cl)).Netsim.cycles_charged

(* Wire traffic so far: messages sent and bytes moved. *)
let wire cl =
  let n = Netsim.stats (Cluster.net cl) in
  (n.Netsim.sent, n.Netsim.bytes_moved)

(* One call's sample: its simulated cost per request (node work + wire)
   and the messages and bytes it put on the wire. *)
type sample = { cost : int; msgs : int; bytes : int }

(* One batch per client; any rejected request is fatal.  Returns one
   sample per call. *)
let drive_round cl clients =
  List.map
    (fun c ->
      let t0 = fleet_cycles cl and m0, b0 = wire cl in
      (match Cluster.Client.call c (List.init batch (fun _ -> (1, payload))) with
      | Ok replies ->
          List.iter
            (function
              | Ok _ -> ()
              | Error r -> Util.fail "bench_cluster" "request" r)
            replies
      | Error e ->
          Format.eprintf "bench_cluster: call failed: %a@." Cluster.pp_error e;
          exit 2);
      let m1, b1 = wire cl in
      { cost = (fleet_cycles cl - t0) / batch; msgs = m1 - m0; bytes = b1 - b0 })
    clients

(* The fleet's ledger: the slowest node's (the longest critical path),
   credited with every node's served requests.  Nodes run on independent
   simulated clocks, so the fleet finishes when its most loaded node
   does; its Util.critical_rps is the aggregate attested rate. *)
let fleet_ledger cl =
  let ledgers =
    List.map (fun n -> Serve.ledger (Cluster.Node.plane n)) (Cluster.nodes cl)
  in
  let slowest =
    List.fold_left
      (fun (s : Serve.ledger) (l : Serve.ledger) ->
        if s.critical_cycles >= l.critical_cycles then s else l)
      (List.hd ledgers) ledgers
  in
  let served =
    List.fold_left (fun acc (l : Serve.ledger) -> acc + l.served) 0 ledgers
  in
  { slowest with served }

let measure_rate ~nodes ~seed =
  let cl, clients = build ~nodes ~seed in
  for _ = 1 to rounds do
    ignore (drive_round cl clients : sample list)
  done;
  let ledger = fleet_ledger cl in
  List.iter Cluster.Client.close clients;
  Cluster.destroy cl;
  ledger

type upgrade = {
  p99 : int;
  max_pause : int;
  migrations : int;
  call_msgs : float;  (* wire messages per call *)
  call_bytes : float;
  migration_msgs : float;  (* wire messages per migration *)
  migration_bytes : float;
}

(* p99 per-request cost while a rolling upgrade migrates every tenant
   out and back under live traffic, the worst migration pause, and the
   wire traffic per call and per migration.  An upgrade step moves
   nothing on the wire but its migrations. *)
let measure_upgrade ~seed =
  let cl, clients = build ~nodes:4 ~seed in
  let samples = ref (drive_round cl clients) in
  let mig_msgs = ref 0 and mig_bytes = ref 0 in
  List.iter
    (fun n ->
      let m0, b0 = wire cl in
      (match Cluster.upgrade_node cl (Cluster.Node.id n) with
      | Ok () -> ()
      | Error e ->
          Format.eprintf "bench_cluster: upgrade failed: %a@." Cluster.pp_error e;
          exit 2);
      let m1, b1 = wire cl in
      mig_msgs := !mig_msgs + (m1 - m0);
      mig_bytes := !mig_bytes + (b1 - b0);
      samples := drive_round cl clients @ !samples)
    (Cluster.nodes cl);
  let sorted = List.sort compare (List.map (fun s -> s.cost) !samples) in
  let n = List.length sorted in
  let stats = Cluster.stats cl in
  let per count total = float_of_int total /. float_of_int (max 1 count) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 !samples in
  List.iter Cluster.Client.close clients;
  Cluster.destroy cl;
  {
    p99 = List.nth sorted (min (n - 1) (n * 99 / 100));
    max_pause = stats.Cluster.max_pause;
    migrations = stats.Cluster.migrations;
    call_msgs = per n (sum (fun s -> s.msgs));
    call_bytes = per n (sum (fun s -> s.bytes));
    migration_msgs = per stats.Cluster.migrations !mig_msgs;
    migration_bytes = per stats.Cluster.migrations !mig_bytes;
  }

let round_trips = 8

(* Minor words of one live migration: a tenant with an open session
   moves between the two nodes of a fleet and back.  An untimed round
   trip first builds the tenant on both nodes and appraises each node's
   platform, so the measured migrations are a steady fleet's. *)
let migration_minor_words () =
  let cl =
    Cluster.create
      {
        Cluster.default_config with
        Cluster.nodes = 2;
        seed = 1004L;
        serve = Util.serve_config ~cores:2;
      }
  in
  let tenant = "mover" in
  let home = Cluster.add_tenant cl ~name:tenant tenant_gen in
  let fail what e =
    Format.eprintf "bench_cluster: %s failed: %a@." what Cluster.pp_error e;
    exit 2
  in
  let client =
    match Cluster.Client.connect cl ~rng:(Rng.create ~seed:1005L) ~tenant () with
    | Ok c -> c
    | Error e -> fail "connect" e
  in
  let move dst =
    match Cluster.migrate cl ~tenant ~dst with
    | Ok _ -> ()
    | Error e -> fail "migrate" e
  in
  let round_trip () =
    move (1 - home);
    move home
  in
  round_trip ();
  let words0 = Gc.minor_words () in
  for _ = 1 to round_trips do
    round_trip ()
  done;
  let words1 = Gc.minor_words () in
  Cluster.Client.close client;
  Cluster.destroy cl;
  (words1 -. words0) /. float_of_int (2 * round_trips)

type summary = {
  ledgers_by_nodes : (int * Serve.ledger) list;
  rps_4x8 : float;
  scaling_1_2 : float;
  scaling_2_4 : float;
  upgrade : upgrade;
  migration_words : float;
}

let summarize () =
  let ledgers_by_nodes =
    List.map (fun nodes -> (nodes, measure_rate ~nodes ~seed:1001L)) [ 1; 2; 4 ]
  in
  let rate n = Util.critical_rps (List.assoc n ledgers_by_nodes) in
  {
    ledgers_by_nodes;
    rps_4x8 = rate 4;
    scaling_1_2 = rate 2 /. rate 1;
    scaling_2_4 = rate 4 /. rate 2;
    upgrade = measure_upgrade ~seed:1002L;
    migration_words = migration_minor_words ();
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
  let rate n = Util.critical_rps (List.assoc n s.ledgers_by_nodes) in
  Util.print_table
    ~columns:(("nodes" :: Util.ledger_columns) @ [ "scaling vs half" ])
    (List.map
       (fun (nodes, l) ->
         (string_of_int nodes :: Util.ledger_cells l)
         @ [
             (if nodes = 1 then "-"
              else Printf.sprintf "%.2fx" (rate nodes /. rate (nodes / 2)));
           ])
       s.ledgers_by_nodes);
  Printf.printf
    "  (serial and critical path: the slowest node's, over which the \
     fleet's served requests are counted)\n";
  let u = s.upgrade in
  Printf.printf
    "\n  rolling upgrade: %d live migrations, p99 request cost %d cycles,\n\
    \  worst migration pause %d cycles (%.1f us at %.1f GHz)\n\
    \  wire per %d-request call: %.2f messages, %.0f bytes; per migration: \
     %.2f messages, %.0f bytes\n"
    u.migrations u.p99 u.max_pause
    (float_of_int u.max_pause /. Util.clock_hz *. 1e6)
    (Util.clock_hz /. 1e9) batch u.call_msgs u.call_bytes u.migration_msgs
    u.migration_bytes;
  Printf.printf "  a live migration allocates %.0f minor words on the host\n"
    s.migration_words;
  Printf.printf "\n  headline: %.0f attested req/s at 4 nodes x %d cores\n"
    s.rps_4x8 cores

(* Fast sanity slice for @serve_smoke: two nodes, live migration under
   an open session, everything served.  The first round chases no
   forward, so each of its calls must cross the wire once each way. *)
let smoke () =
  let cl, clients = build ~nodes:2 ~seed:1003L in
  List.iter
    (fun s ->
      if s.msgs <> 2 then begin
        Printf.eprintf
          "cluster_smoke: FAIL — a call sent %d wire messages, expected 2\n"
          s.msgs;
        exit 1
      end)
    (drive_round cl clients);
  let victim = "tenant-0" in
  let dst = 1 - Cluster.owner cl ~tenant:victim in
  (match Cluster.migrate cl ~tenant:victim ~dst with
  | Ok _ -> ()
  | Error e ->
      Format.eprintf "cluster_smoke: FAIL — migrate: %a@." Cluster.pp_error e;
      exit 1);
  ignore (drive_round cl clients : sample list);
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
    ("cluster_p99_upgrade_cycles", float_of_int s.upgrade.p99);
    ("cluster_pause_cycles", float_of_int s.upgrade.max_pause);
    ("migration_minor_words", s.migration_words);
  ]
