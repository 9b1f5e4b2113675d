(* The three closed-loop workloads.  Each [setup] boots the system through
   its public API and returns an instance whose [prepare ph r] draws round
   [r]'s inputs from the seeded stream and returns the thunk that runs the
   round: every client sends its burst, waits for the replies and checks
   them.  Only the thunk is timed. *)

open Hyperenclave

type times = {
  platform_s : float;
  tenants_s : float;
  load_s : float;
  handshake_s : float;
}

type t = {
  cycles : unit -> int;  (** every simulated clock of the workload, summed *)
  planes : unit -> Serve.t list;
  telemetries : Telemetry.t list;
  net : Netsim.t option;
  chases : int ref;  (** [Session_migrated] forwards followed *)
  migrate_bytes : int ref;  (** wire bytes moved by migrations *)
  prepare : Meter.phase -> int -> unit -> unit;
  destroy : unit -> unit;
}

let names = [ "echo_fanin"; "kv_ycsb"; "session_churn" ]

(* Rounds of the reference pass, whose simulated metrics are reported:
   enough for >= 1,000 latency samples (connect and migrate samples on
   session_churn). *)
let reference_rounds = function
  | "echo_fanin" -> 200
  | "kv_ycsb" -> 1000
  | _ -> 1000

(* Rounds of every later pass: short passes, so a run holds many. *)
let pass_rounds = function
  | "echo_fanin" -> 100
  | _ -> 200

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let rng_of ~seed salt =
  Rng.create ~seed:(Int64.add (Int64.mul (Int64.of_int seed) 1_000_003L) salt)

let golden_of (p : Platform.t) =
  Verifier.golden_of_boot_log
    ~ek_public:(Tpm.ek_public p.Platform.tpm)
    (Monitor.boot_log p.Platform.monitor)

let echo_handlers = [ (1, fun _env input -> input) ]

let serve_config ~cores =
  {
    Serve.default_config with
    Serve.sched =
      { Sched.default_config with Sched.cores; batch = 16; drop_on_error = true };
    max_queue = 256;
  }

let die what r =
  Format.eprintf "hebench: %s: %a@." what Serve.pp_reject r;
  exit 3

let connect_client plane ~tenant client =
  match Serve.handshake plane ~tenant (Serve.Client.hello client) with
  | Error r -> die "handshake" r
  | Ok accept -> (
      match Serve.Client.establish client accept with
      | Error r -> die "establish" r
      | Ok () -> client)

(* Seeded payload of 16-192 bytes. *)
let payload rng = Rng.bytes rng (16 + Rng.int rng 177)

(* --- the client loop of one plane round ---------------------------------------

   [bursts.(ci)] is client [ci]'s list of [(payload, check)]; [check body]
   judges the unsealed reply.  Seal and [submit] every request, flush
   [plane ()], then read back and check every reply in order: it must
   carry the client's session id and the request's sequence number. *)

type client = { sc : Serve.Client.t; sid : int }

let run_bursts ph ~clock ~plane ~submit ~ecall clients
    (bursts : (bytes * (bytes -> bool)) list array) =
  let admitted = Array.make (Array.length clients) [] in
  let replies, r =
    Meter.plane_round ph.Meter.led ~clock ~plane (fun () ->
        let n = ref 0 in
        Array.iteri
          (fun ci cl ->
            List.iter
              (fun ((data, _) as item) ->
                let req_id = ph.Meter.attempted in
                ph.Meter.attempted <- req_id + 1;
                let sp = Span.enter ~req:req_id "client.seal" in
                let req = Serve.Client.request cl.sc ~ecall data in
                Span.leave sp;
                let sp = Span.enter ~req:req_id "serve.submit" in
                let res = submit req in
                Span.leave sp;
                match res with
                | Ok () ->
                    incr n;
                    admitted.(ci) <- (req.Serve.seq, req_id, item) :: admitted.(ci)
                | Error rej -> Meter.fail ph (Serve.reject_name rej))
              bursts.(ci))
          clients;
        !n)
  in
  let expect = Array.map List.rev admitted in
  let index = Hashtbl.create 16 in
  Array.iteri (fun ci cl -> Hashtbl.replace index cl.sid ci) clients;
  List.iter
    (fun (reply : Serve.reply) ->
      match Hashtbl.find_opt index reply.Serve.r_session_id with
      | None -> Meter.fail ph "unknown-session"
      | Some ci -> (
          match expect.(ci) with
          | [] -> Meter.fail ph "extra-reply"
          | (seq, req_id, (_, check)) :: rest -> (
              expect.(ci) <- rest;
              if reply.Serve.r_seq <> seq then Meter.fail ph "wrong-seq"
              else
                let sp = Span.enter ~req:req_id "client.unseal" in
                let body = Serve.Client.read_reply clients.(ci).sc reply in
                Span.leave sp;
                match body with
                | Error rej -> Meter.fail ph (Serve.reject_name rej)
                | Ok body ->
                    Meter.digest_out ph body;
                    if check body then begin
                      ph.Meter.served <- ph.Meter.served + 1;
                      Meter.Samples.add ph.Meter.lat r.Meter.crit_cyc
                    end
                    else Meter.fail ph "wrong-reply")))
    replies;
  Array.iter (List.iter (fun _ -> Meter.fail ph "missing-reply")) expect;
  ph.Meter.crit <- ph.Meter.crit + r.Meter.crit_cyc

(* --- echo_fanin --------------------------------------------------------------- *)

let echo_fanin ~seed =
  let (p, plane), platform_s =
    timed (fun () ->
        let p = Platform.create ~seed:(Int64.of_int (7000 + seed)) () in
        ( p,
          Serve.create_node ~platform:p
            (Serve.Node_config.v ~platform:p (serve_config ~cores:8)) ))
  in
  let tenants = List.init 4 (Printf.sprintf "tenant-%d") in
  let backends, tenants_s =
    timed (fun () ->
        List.map
          (fun name ->
            ( name,
              Serve.add_tenant plane ~name
                {
                  (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
                  Backend.handlers = echo_handlers;
                  code_seed = Some name;
                } ))
          tenants)
  in
  let golden = golden_of p in
  let clients, handshake_s =
    timed (fun () ->
        Array.of_list
          (List.concat
             (List.mapi
                (fun i (name, (backend : Backend.t)) ->
               let identity = Option.get backend.Backend.identity in
               List.init 4 (fun j ->
                   let sc =
                     Serve.Client.create
                       ~rng:(rng_of ~seed (Int64.of_int (100 + (4 * i) + j)))
                       ~golden
                       ~policy:
                         {
                           Verifier.expected_mrenclave = Some identity;
                           expected_mrsigner = None;
                           allow_debug = false;
                         }
                       ~expected_tenant:identity ()
                   in
                   let sc = connect_client plane ~tenant:name sc in
                   { sc; sid = Serve.Client.session_id sc }))
                backends)))
  in
  let rng = rng_of ~seed 1L in
  let clock () = Cycles.now p.Platform.clock in
  let prepare ph _round =
    let bursts =
      Array.map
        (fun _ ->
          List.init (1 + Rng.int rng 16) (fun _ ->
              let data = payload rng in
              Meter.digest_in ph data;
              (data, Bytes.equal data)))
        clients
    in
    fun () ->
      run_bursts ph ~clock ~plane:(fun () -> plane) ~submit:(Serve.submit plane) ~ecall:1
        clients bursts
  in
  ( {
      cycles = clock;
      planes = (fun () -> [ plane ]);
      telemetries = [ Monitor.telemetry p.Platform.monitor ];
      net = None;
      chases = ref 0;
      migrate_bytes = ref 0;
      prepare;
      destroy = (fun () -> Serve.destroy plane);
    },
    { platform_s; tenants_s; load_s = 0.; handshake_s } )

(* --- kv_ycsb --------------------------------------------------------------------

   YCSB-A (zipf 0.99) over one kvdb tenant, one op in eight a short
   BETWEEN scan.  Updates write a fresh, unique value, so every read can
   be checked: it must return one of the values written in the last
   earlier round that wrote the key (their order inside a round is the
   scheduler's), or one written in its own round.  A seeded quarter of
   the updates are followed by a read of the same key from the same
   session in the next round (read-your-writes). *)

let kv_records = 2000

let kv_ycsb ~seed =
  let (p, plane), platform_s =
    timed (fun () ->
        let p = Platform.create ~seed:(Int64.of_int (8000 + seed)) () in
        ( p,
          Serve.create_node ~platform:p
            (Serve.Node_config.v ~platform:p (serve_config ~cores:2)) ))
  in
  let name = "kvdb" in
  let backend, tenants_s =
    timed (fun () ->
        Serve.add_tenant plane ~name (Services.backend_config Services.Kvdb))
  in
  let (), load_s =
    timed (fun () ->
        ignore
          (backend.Backend.call ~id:Services.ecall_admin
             ~data:(Services.load_request ~records:kv_records)
             ~direction:Edge.In_out ()
            : bytes))
  in
  let identity = Option.get backend.Backend.identity in
  let golden = golden_of p in
  let clients, handshake_s =
    timed (fun () ->
        Array.init 4 (fun j ->
            let sc =
              Serve.Client.create
                ~rng:(rng_of ~seed (Int64.of_int (200 + j)))
                ~golden
                ~policy:
                  {
                    Verifier.expected_mrenclave = Some identity;
                    expected_mrsigner = None;
                    allow_debug = false;
                  }
                ~expected_tenant:identity ()
            in
            let sc = connect_client plane ~tenant:name sc in
            { sc; sid = Serve.Client.session_id sc }))
  in
  let rng = rng_of ~seed 2L in
  let gen = Workloads.Ycsb.create ~rng:(rng_of ~seed 3L) ~records:kv_records () in
  (* key -> values an update may have left there *)
  let committed : (int, string list) Hashtbl.t = Hashtbl.create 256 in
  let written : (int, string list) Hashtbl.t = Hashtbl.create 64 in
  let follow_up = Array.make (Array.length clients) [] in
  let updates = ref 0 in
  let admissible key =
    let prior =
      match Hashtbl.find_opt committed key with
      | Some vs -> vs
      | None -> [ Workloads.Kvdb.value_literal key ]
    in
    prior @ Option.value ~default:[] (Hashtbl.find_opt written key)
  in
  let read key =
    ( Bytes.of_string (Workloads.Kvdb.stmt_of_op (Workloads.Ycsb.Read key)),
      fun body ->
        Services.reply_ok Services.Kvdb body
        && Bytes.length body > 1
        && List.mem (Bytes.sub_string body 1 (Bytes.length body - 1)) (admissible key)
    )
  in
  let clock () = Cycles.now p.Platform.clock in
  let sql stmt = Bytes.of_string stmt in
  let prepare ph round =
    let bursts =
      Array.mapi
        (fun ci _ ->
          let checks = List.rev_map read follow_up.(ci) in
          follow_up.(ci) <- [];
          let ops =
            List.init (1 + Rng.int rng 8) (fun _ ->
                if Rng.int rng 8 = 0 then
                  let op = Workloads.Ycsb.next_scan gen ~max_len:8 () in
                  ( sql (Workloads.Kvdb.stmt_of_op op),
                    fun body ->
                      Services.reply_ok Services.Kvdb body
                      && Bytes.length body > 5
                      && Bytes.sub_string body (Bytes.length body - 5) 5 = " rows" )
                else
                  match Workloads.Ycsb.next_op_a gen with
                  | Workloads.Ycsb.Update key ->
                      incr updates;
                      let value = Printf.sprintf "r%07d-u%023d" round !updates in
                      Hashtbl.replace written key
                        (value :: Option.value ~default:[] (Hashtbl.find_opt written key));
                      if Rng.int rng 4 = 0 then follow_up.(ci) <- key :: follow_up.(ci);
                      ( sql (Printf.sprintf "UPDATE kv SET v = '%s' WHERE k = %d" value key),
                        Services.reply_ok Services.Kvdb )
                  | Workloads.Ycsb.Read key -> read key
                  | Workloads.Ycsb.Scan _ as op ->
                      (sql (Workloads.Kvdb.stmt_of_op op), Services.reply_ok Services.Kvdb))
          in
          let burst = checks @ ops in
          List.iter (fun (data, _) -> Meter.digest_in ph data) burst;
          burst)
        clients
    in
    fun () ->
      run_bursts ph ~clock
        ~plane:(fun () -> plane)
        ~submit:(Serve.submit plane) ~ecall:Services.ecall_request clients bursts;
      Hashtbl.iter (fun key vs -> Hashtbl.replace committed key vs) written;
      Hashtbl.reset written
  in
  ( {
      cycles = clock;
      planes = (fun () -> [ plane ]);
      telemetries = [ Monitor.telemetry p.Platform.monitor ];
      net = None;
      chases = ref 0;
      migrate_bytes = ref 0;
      prepare;
      destroy = (fun () -> Serve.destroy plane);
    },
    { platform_s; tenants_s; load_s; handshake_s } )

(* --- session_churn ------------------------------------------------------------

   A 2-node cluster, 2 cores per node, 4 echo tenants.  Every round opens
   a fresh attested session through the LB and the network simulator,
   sends it a 1-4 request burst and closes it, then live-migrates one
   tenant (round-robin) to the other node.  One long-lived session per
   tenant, opened at setup directly on the owning plane, sends its own
   1-4 request burst every round to the node it last knew, following
   [Session_migrated] forwards with the same sealed envelope. *)

type long = { client : client; mutable node : int }

let session_churn ~seed =
  let tenants = Array.init 4 (Printf.sprintf "tenant-%d") in
  let tenant_gen () =
    {
      (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
      Backend.handlers = echo_handlers;
    }
  in
  let cl, platform_s =
    timed (fun () ->
        Cluster.create
          {
            Cluster.default_config with
            Cluster.nodes = 2;
            seed = Int64.of_int (9000 + seed);
            serve = serve_config ~cores:2;
          })
  in
  let (), tenants_s =
    timed (fun () ->
        Array.iter (fun name -> ignore (Cluster.add_tenant cl ~name tenant_gen : int)) tenants)
  in
  let longs, handshake_s =
    timed (fun () ->
        Array.mapi
          (fun i name ->
            let node = Cluster.owner cl ~tenant:name in
            let a = Cluster.anchor cl node in
            let sc =
              Serve.Client.create
                ~rng:(rng_of ~seed (Int64.of_int (300 + i)))
                ~golden:a.Cluster.a_golden
                ~policy:
                  {
                    Verifier.expected_mrenclave = None;
                    expected_mrsigner = None;
                    allow_debug = false;
                  }
                ~expected_hapk:a.Cluster.a_hapk ()
            in
            let sc = connect_client (Cluster.plane cl node) ~tenant:name sc in
            { client = { sc; sid = Serve.Client.session_id sc }; node })
          tenants)
  in
  let clocks =
    Array.of_list
      (List.map (fun n -> (Cluster.Node.platform n).Platform.clock) (Cluster.nodes cl))
  in
  let net = Cluster.net cl in
  (* Each simulated cycle counted once: node platform clocks plus the
     wire clock, whose advance is what Netsim charged. *)
  let cycles () =
    Array.fold_left (fun acc c -> acc + Cycles.now c) 0 clocks
    + (Netsim.stats net).Netsim.cycles_charged
  in
  let chases = ref 0 and migrate_bytes = ref 0 in
  let rng = rng_of ~seed 4L in
  let op ph name f =
    let sp = Span.enter name in
    let c0 = cycles () in
    let x = f () in
    let dc = cycles () - c0 in
    Span.leave sp;
    ph.Meter.crit <- ph.Meter.crit + dc;
    (x, dc)
  in
  let err_name e = Format.asprintf "%a" Cluster.pp_error e in
  (* A long-lived session submits to the node it last knew and follows
     [Session_migrated] forwards with the same sealed envelope: its key
     and sequence cursor moved with the tenant. *)
  let rec admit lc req hops =
    match Serve.submit (Cluster.plane cl lc.node) req with
    | Error (Serve.Session_migrated { to_node }) when hops < 2 ->
        incr chases;
        lc.node <- to_node;
        admit lc req (hops + 1)
    | res -> res
  in
  let long_round ph lc burst =
    run_bursts ph ~clock:cycles
      ~plane:(fun () -> Cluster.plane cl lc.node)
      ~submit:(fun req -> admit lc req 0)
      ~ecall:1 [| lc.client |]
      [| List.map (fun data -> (data, Bytes.equal data)) burst |]
  in
  let prepare ph round =
    let burst () =
      List.init (1 + Rng.int rng 4) (fun _ ->
          let data = payload rng in
          Meter.digest_in ph data;
          data)
    in
    let short_tenant = tenants.(Rng.int rng 4) in
    let short_rng = Rng.create ~seed:(Rng.next_int64 rng) in
    let short = burst () in
    let mover = tenants.(round mod 4) in
    let bursts = Array.map (fun _ -> burst ()) longs in
    fun () ->
      ph.Meter.attempted <- ph.Meter.attempted + 1;
      (match
         op ph "cluster.connect" (fun () ->
             Cluster.Client.connect cl ~rng:short_rng ~tenant:short_tenant ())
       with
      | Error e, _ -> Meter.fail ph ~latency:false ("connect:" ^ err_name e)
      | Ok c, dc ->
          Meter.Samples.add ph.Meter.connect dc;
          let reqs = List.map (fun d -> (1, d)) short in
          ph.Meter.attempted <- ph.Meter.attempted + List.length reqs;
          (match op ph "cluster.call" (fun () -> Cluster.Client.call c reqs) with
          | Error e, _ -> List.iter (fun _ -> Meter.fail ph ("call:" ^ err_name e)) reqs
          | Ok replies, dc ->
              List.iter2
                (fun data reply ->
                  match reply with
                  | Ok body when Bytes.equal body data ->
                      Meter.digest_out ph body;
                      ph.Meter.served <- ph.Meter.served + 1;
                      Meter.Samples.add ph.Meter.lat dc
                  | Ok _ -> Meter.fail ph "wrong-reply"
                  | Error rej -> Meter.fail ph (Serve.reject_name rej))
                short replies);
          ignore (op ph "cluster.close" (fun () -> Cluster.Client.close c)));
      ph.Meter.attempted <- ph.Meter.attempted + 1;
      let dst = 1 - Cluster.owner cl ~tenant:mover in
      let b0 = (Netsim.stats net).Netsim.bytes_moved in
      let moved = op ph "cluster.migrate" (fun () -> Cluster.migrate cl ~tenant:mover ~dst) in
      migrate_bytes := !migrate_bytes + (Netsim.stats net).Netsim.bytes_moved - b0;
      (match moved with
      | Ok moved, dc when moved >= 1 -> Meter.Samples.add ph.Meter.migrate dc
      | Ok _, _ -> Meter.fail ph ~latency:false "migrate:no-session-moved"
      | Error e, _ -> Meter.fail ph ~latency:false ("migrate:" ^ err_name e));
      Array.iteri (fun i lc -> long_round ph lc bursts.(i)) longs
  in
  ( {
      cycles;
      planes = (fun () -> List.map Cluster.Node.plane (Cluster.nodes cl));
      telemetries =
        List.map
          (fun n -> Monitor.telemetry (Cluster.Node.platform n).Platform.monitor)
          (Cluster.nodes cl);
      net = Some net;
      chases;
      migrate_bytes;
      prepare;
      destroy = (fun () -> Cluster.destroy cl);
    },
    { platform_s; tenants_s; load_s = 0.; handshake_s } )

let setup name ~seed =
  match name with
  | "echo_fanin" -> echo_fanin ~seed
  | "kv_ycsb" -> kv_ycsb ~seed
  | "session_churn" -> session_churn ~seed
  | other -> invalid_arg ("unknown workload " ^ other)
