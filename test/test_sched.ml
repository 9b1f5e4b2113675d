(* The SMP enclave scheduler (lib/sched) and the switchless slot ring:
   determinism, core scaling, invariance of the work under joins, the
   placement of ring slots and calls, chaos with invariant checks, and
   the ring's ordering, typed refusals, fault retry and saving over
   individual ECALLs. *)

open Hyperenclave

let telemetry p = Monitor.telemetry p.Platform.monitor

(* An enclave whose single ECALL burns a fixed compute budget and echoes
   its input — the unit of schedulable work.  [code_seed] varies per
   enclave so each has its own identity (and MRENCLAVE). *)
let make_enclave p ~seed_name ~burn =
  Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
    ~signer:p.Platform.signer
    ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed = seed_name }
    ~ecalls:
      [
        ( 1,
          fun (tenv : Tenv.t) input ->
            tenv.Tenv.compute burn;
            input );
      ]
    ~ocalls:[]

let requests ~tag n =
  List.init n (fun i -> (1, Bytes.of_string (Printf.sprintf "%s-%d" tag i)))

(* --- switchless slot ring ---------------------------------------------------- *)

let stage ring (id, data) =
  let len = Bytes.length data in
  let off = Urts.ring_stage ring ~ecall_id:id ~len in
  Bytes.blit data 0 (Urts.ring_buf ring) off len

let ring_replies ring =
  List.init (Urts.ring_staged ring) (fun slot ->
      let off, len = Urts.ring_reply_slot ring ~slot in
      Bytes.sub_string (Urts.ring_reply_buf ring) off len)

(* One full batch: stage, publish, dispatch, read back. *)
let run_ring ring reqs =
  Urts.ring_reset ring;
  List.iter (stage ring) reqs;
  Urts.ring_publish ring;
  Urts.ring_dispatch ring;
  Urts.ring_read_replies ring;
  ring_replies ring

let expect_enclave_error what f =
  match f () with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Urts.Enclave_error _ -> ()

let test_batch_semantics () =
  let p = Platform.create ~seed:4100L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:
        [
          ( 1,
            fun (_ : Tenv.t) input ->
              Bytes.of_string (String.uppercase_ascii (Bytes.to_string input)) );
          (2, fun (_ : Tenv.t) input -> Bytes.cat input input);
          (3, fun (_ : Tenv.t) _ -> Bytes.make 33 'z');
        ]
      ~ocalls:[]
  in
  let ring = Urts.create_ring handle ~shard:0 ~shards:1 ~slots:3 ~slot_bytes:32 in
  let b = Bytes.of_string in
  Alcotest.(check (list string))
    "replies in staged order" [ "AA"; "xyxy"; "BB" ]
    (run_ring ring [ (1, b "aa"); (2, b "xy"); (1, b "bb") ]);
  Alcotest.(check int)
    "one dispatch for the whole ring" 1
    (Telemetry.counter (telemetry p) "sdk.ring_dispatch");
  Alcotest.(check int)
    "no world switch" 0
    (Telemetry.counter (telemetry p) "sdk.ecall");
  (* A full ring, an oversize payload, an unknown id and an oversize
     reply are typed refusals. *)
  Urts.ring_reset ring;
  List.iter (stage ring) [ (1, b "a"); (1, b "b"); (1, b "c") ];
  expect_enclave_error "a fourth slot in a full ring" (fun () ->
      Urts.ring_stage ring ~ecall_id:1 ~len:1);
  Urts.ring_reset ring;
  expect_enclave_error "a payload past slot_bytes" (fun () ->
      Urts.ring_stage ring ~ecall_id:1 ~len:33);
  expect_enclave_error "an unknown ECALL id" (fun () ->
      run_ring ring [ (99, b "x") ]);
  expect_enclave_error "a reply past slot_bytes" (fun () ->
      run_ring ring [ (3, b "x") ]);
  Alcotest.(check (list string))
    "the ring still serves after the refusals" [ "OK" ]
    (run_ring ring [ (1, b "ok") ]);
  Urts.destroy handle

let test_batch_amortizes_transition () =
  let p = Platform.create ~seed:4101L () in
  let handle = make_enclave p ~seed_name:"batch-amortize" ~burn:0 in
  let reqs = requests ~tag:"r" 8 in
  let ring = Urts.create_ring handle ~shard:0 ~shards:1 ~slots:8 ~slot_bytes:64 in
  let clock = p.Platform.clock in
  let (_ : string list), ringed = Cycles.time clock (fun () -> run_ring ring reqs) in
  let (_ : unit), single =
    Cycles.time clock (fun () ->
        List.iter
          (fun (id, data) ->
            ignore (Urts.ecall handle ~id ~data ~direction:Edge.In_out ()))
          reqs)
  in
  (* Acceptance bar: at K = 8 the ring serves the batch in at most half
     the cycles of eight individual ECALLs. *)
  Alcotest.(check bool)
    (Printf.sprintf "ring of 8 (%d cycles) at least 2x cheaper than 8 ECALLs (%d)"
       ringed single)
    true
    (2 * ringed <= single);
  Urts.destroy handle

(* A transient fault in slot 1's handler (its heap read swaps a page
   back in, and the ELDU reload fires the injected "epc.swap_in" fault)
   is retried from slot 1: slot 0's handler, already served, must not
   run again. *)
let test_ring_retry_resumes () =
  (* 134 MB DRAM - 128 MB OS - 4 MB monitor = a 512-frame EPC. *)
  let p = Platform.create ~seed:1234L ~phys_mb:134 ~os_mb:128 ~monitor_mb:4 () in
  let runs = Array.make 2 0 in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.elrange_pages = 2048 }
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              (* Overcommit the EPC so early heap pages are swapped out. *)
              let base = tenv.Tenv.malloc (700 * 4096) in
              for i = 0 to 699 do
                tenv.Tenv.write ~va:(base + (i * 4096)) (Bytes.of_string "x")
              done;
              Bytes.empty );
          ( 2,
            fun (tenv : Tenv.t) input ->
              match String.split_on_char ':' (Bytes.to_string input) with
              | [ slot; va ] ->
                  let slot = int_of_string slot and va = int_of_string va in
                  runs.(slot) <- runs.(slot) + 1;
                  if va <> 0 then ignore (tenv.Tenv.read ~va ~len:1 : bytes);
                  input
              | _ -> invalid_arg "ring slot payload" );
        ]
      ~ocalls:[]
  in
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  let enclave_id = (Urts.enclave handle).Enclave.id in
  let first_vpn = 0x1_0000_0000 / 4096 in
  let swapped_vpn =
    List.find
      (fun vpn ->
        Kernel.disk_load p.Platform.kernel
          ~key:(Printf.sprintf "heswap:%d:%x" enclave_id vpn)
        <> None)
      (List.init 2048 (fun i -> first_vpn + i))
  in
  let reqs =
    [
      (2, Bytes.of_string "0:0");
      (2, Bytes.of_string (Printf.sprintf "1:%d" (swapped_vpn * 4096)));
    ]
  in
  let ring = Urts.create_ring handle ~shard:0 ~shards:1 ~slots:2 ~slot_bytes:32 in
  List.iter (stage ring) reqs;
  Urts.ring_publish ring;
  Fault.install ~telemetry:(telemetry p)
    [ { Fault.site = "epc.swap_in"; nth = 1; kind = Fault.Transient } ];
  let injected =
    Fun.protect ~finally:Fault.clear (fun () ->
        Urts.ring_dispatch ring;
        Fault.injected_count ())
  in
  Urts.ring_read_replies ring;
  Alcotest.(check int) "one transient injected" 1 injected;
  Alcotest.(check int) "slot 0's handler ran once" 1 runs.(0);
  Alcotest.(check int) "slot 1's handler re-ran from its top" 2 runs.(1);
  Alcotest.(check (list string))
    "both slots served"
    (List.map (fun (_, d) -> Bytes.to_string d) reqs)
    (ring_replies ring);
  Urts.destroy handle

(* Staging images start 16 slots wide and double on demand: staging past
   the initial image keeps every earlier slot's bytes, and a full
   256-slot ring round-trips. *)
let test_ring_images_grow () =
  let p = Platform.create ~seed:4103L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:
        [
          ( 1,
            fun (_ : Tenv.t) input ->
              Bytes.of_string (String.uppercase_ascii (Bytes.to_string input)) );
        ]
      ~ocalls:[]
  in
  let ring =
    Urts.create_ring handle ~shard:0 ~shards:1 ~slots:256 ~slot_bytes:32
  in
  let reqs =
    List.init 256 (fun i -> (1, Bytes.of_string (Printf.sprintf "slot-%03d" i)))
  in
  List.iteri (fun i r -> if i < 16 then stage ring r) reqs;
  let initial = Bytes.copy (Urts.ring_buf ring) in
  stage ring (List.nth reqs 16);
  let grown = Urts.ring_buf ring in
  Alcotest.(check bool) "the 17th slot grows the image" true
    (Bytes.length grown > Bytes.length initial);
  Alcotest.(check bytes) "the first 16 slots keep their bytes" initial
    (Bytes.sub grown 0 (Bytes.length initial));
  List.iteri (fun i r -> if i > 16 then stage ring r) reqs;
  expect_enclave_error "a 257th slot" (fun () ->
      Urts.ring_stage ring ~ecall_id:1 ~len:1);
  Urts.ring_publish ring;
  Urts.ring_dispatch ring;
  Urts.ring_read_replies ring;
  Alcotest.(check (list string))
    "all 256 slots round-trip"
    (List.map
       (fun (_, d) -> String.uppercase_ascii (Bytes.to_string d))
       reqs)
    (ring_replies ring);
  Urts.destroy handle

(* A channel ring hands each slot to the worker's callbacks: [open_slot]
   sees the staged bytes in the worker's private copy before the
   handler, and [seal_slot] frames the reply with room for the tag.  Here
   the "cipher" is a byte XOR and the tag a run of '#'. *)
let test_channel_ring () =
  let p = Platform.create ~seed:4104L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:
        [
          ( 1,
            fun (_ : Tenv.t) input ->
              Bytes.of_string (String.uppercase_ascii (Bytes.to_string input)) );
          (2, fun (_ : Tenv.t) _ -> Bytes.make 32 'z');
        ]
      ~ocalls:[]
  in
  let xor b = Bytes.map (fun c -> Char.chr (Char.code c lxor 0x5a)) b in
  let opened = ref [] in
  let channel =
    {
      Urts.open_slot =
        (fun ~slot buf ->
          opened := slot :: !opened;
          Bytes.blit (xor buf) 0 buf 0 (Bytes.length buf));
      seal_slot =
        (fun ~slot:_ reply ~dst ~dst_off ->
          let len = Bytes.length reply in
          Bytes.blit (xor reply) 0 dst dst_off len;
          Bytes.fill dst (dst_off + len) Urts.tag_bytes '#';
          len + Urts.tag_bytes);
    }
  in
  let ring =
    Urts.create_ring ~channel handle ~shard:0 ~shards:1 ~slots:4 ~slot_bytes:32
  in
  let sealed = List.map (fun s -> (1, xor (Bytes.of_string s))) [ "ab"; "cde" ] in
  let replies = run_ring ring sealed in
  Alcotest.(check (list int)) "each slot opened once, in order" [ 0; 1 ]
    (List.rev !opened);
  Alcotest.(check (list string))
    "replies sealed with their tag"
    [ "AB" ^ String.make 32 '#'; "CDE" ^ String.make 32 '#' ]
    (List.map
       (fun r ->
         let n = String.length r - Urts.tag_bytes in
         Bytes.to_string (xor (Bytes.of_string (String.sub r 0 n)))
         ^ String.sub r n Urts.tag_bytes)
       replies);
  (* A full-size reply still fits next to its tag. *)
  Alcotest.(check int) "32-byte reply + tag" (32 + Urts.tag_bytes)
    (String.length (List.hd (run_ring ring [ (2, Bytes.of_string "x") ])));
  Urts.destroy handle

(* --- scheduler ------------------------------------------------------------- *)

type run_result = {
  stats : Sched.stats;
  sched_counters : (string * int) list;
  per_core_cycles : int list;
}

(* Build a fresh platform with [enclaves] jobs of [reqs_per_job] requests
   each and run them through the scheduler.  Everything is derived from
   [seed] and the config, so two identical calls must be bit-identical. *)
let run_workload ?(seed = 4200L) ?(enclaves = 4) ?(reqs_per_job = 10)
    ?(burn = 15_000) ?(submit_core = None) config =
  let p = Platform.create ~seed () in
  let handles =
    List.init enclaves (fun i ->
        make_enclave p ~seed_name:(Printf.sprintf "sched-enclave-%d" i) ~burn)
  in
  let sched =
    Sched.create ~shared_clock:p.Platform.clock ~telemetry:(telemetry p) config
  in
  List.iteri
    (fun i handle ->
      Sched.submit sched ?core:submit_core ~urts:handle
        (requests ~tag:(Printf.sprintf "job%d" i) reqs_per_job))
    handles;
  let stats = Sched.run sched in
  let result =
    {
      stats;
      sched_counters = Telemetry.counters_with_prefix (telemetry p) "sched.";
      per_core_cycles =
        Array.to_list
          (Array.map (fun (c : Sched.core_stats) -> c.Sched.cycles) stats.Sched.per_core);
    }
  in
  List.iter Urts.destroy handles;
  result

let two_cores = { Sched.default_config with Sched.cores = 2 }

let test_determinism () =
  let a = run_workload two_cores in
  let b = run_workload two_cores in
  Alcotest.(check (list (pair string int)))
    "telemetry bit-identical" a.sched_counters b.sched_counters;
  Alcotest.(check (list int))
    "per-core cycle totals bit-identical" a.per_core_cycles b.per_core_cycles;
  Alcotest.(check int) "makespan identical" a.stats.Sched.makespan b.stats.Sched.makespan;
  Alcotest.(check int) "joins identical" a.stats.Sched.joins b.stats.Sched.joins;
  Alcotest.(check int)
    "all requests served" (4 * 10) a.stats.Sched.total_requests

let test_core_scaling () =
  let run cores = run_workload { Sched.default_config with Sched.cores } in
  let one = run 1 and two = run 2 and four = run 4 in
  Alcotest.(check int) "1-core serves all" 40 one.stats.Sched.total_requests;
  Alcotest.(check int) "4-core serves all" 40 four.stats.Sched.total_requests;
  let speedup = float_of_int one.stats.Sched.makespan /. float_of_int two.stats.Sched.makespan in
  Alcotest.(check bool)
    (Printf.sprintf "2 cores at least 1.6x faster (got %.2fx)" speedup)
    true (speedup >= 1.6);
  Alcotest.(check bool)
    "4 cores no slower than 2" true
    (four.stats.Sched.makespan <= two.stats.Sched.makespan)

let test_work_stealing_invariance () =
  (* All jobs land on core 0, so the only scheduling freedom left is
     core 1 joining them.  Work performed (sum of busy cycles) must not
     depend on it. *)
  let base = two_cores in
  let stealing =
    run_workload ~submit_core:(Some 0) { base with Sched.work_stealing = true }
  in
  let serial =
    run_workload ~submit_core:(Some 0) { base with Sched.work_stealing = false }
  in
  let busy_sum r =
    Array.fold_left
      (fun acc (c : Sched.core_stats) -> acc + c.Sched.busy)
      0 r.stats.Sched.per_core
  in
  Alcotest.(check bool) "core 1 joined" true (stealing.stats.Sched.joins > 0);
  Alcotest.(check int)
    "both serve every request" serial.stats.Sched.total_requests
    stealing.stats.Sched.total_requests;
  Alcotest.(check int)
    "cross-core busy totals invariant under stealing" (busy_sum serial)
    (busy_sum stealing);
  Alcotest.(check bool)
    "joins spread work to core 1" true
    (stealing.stats.Sched.per_core.(1).Sched.busy > 0);
  (* Without joins, core 1 never ran anything. *)
  Alcotest.(check int)
    "serial run kept core 1 idle" 0 serial.stats.Sched.per_core.(1).Sched.busy

(* A drained job must not outlive its run: [stats] keeps only counts, so
   the job's [on_result] closure (and everything it captures) becomes
   garbage once [run] returns. *)
let test_finished_jobs_released () =
  let p = Platform.create ~seed:4300L () in
  let handle = make_enclave p ~seed_name:"sched-release" ~burn:0 in
  let sched =
    Sched.create ~shared_clock:p.Platform.clock ~telemetry:(telemetry p)
      Sched.default_config
  in
  let served = ref 0 in
  let closures = Weak.create 1 in
  (* Built out of line so no local of this frame keeps the closure
     reachable; it captures [served], so it is a heap block. *)
  let submit () =
    let on_result ~index:_ ~core:_ _ = incr served in
    Weak.set closures 0 (Some on_result);
    Sched.submit sched ~on_result ~urts:handle (requests ~tag:"w" 3)
  in
  (Sys.opaque_identity submit) ();
  ignore (Sched.run sched : Sched.stats);
  Gc.full_major ();
  Alcotest.(check int) "every request delivered" 3 !served;
  Alcotest.(check int)
    "stats still count the job" 3 (Sched.stats sched).Sched.total_requests;
  Alcotest.(check bool) "on_result collected" false (Weak.check closures 0);
  Urts.destroy handle

(* --- slot placement: run-relative time and ring joins ----------------------- *)

(* An enclave whose ECALL 1 burns the cycle count its payload names, so
   each ring slot can carry its own cost. *)
let burner p ~seed_name =
  Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
    ~signer:p.Platform.signer
    ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed = seed_name }
    ~ecalls:
      [
        ( 1,
          fun (tenv : Tenv.t) input ->
            tenv.Tenv.compute (int_of_string (Bytes.to_string input));
            input );
      ]
    ~ocalls:[]

(* A published ring on [shard] of [shards] whose slots burn [burns]; an
   ECALL id of 99 has no handler. *)
let burn_ring ?(id = fun _ -> 1) handle ~shard ~shards burns =
  let ring =
    Urts.create_ring handle ~shard ~shards ~slots:(List.length burns)
      ~slot_bytes:32
  in
  List.iteri
    (fun i b -> stage ring (id i, Bytes.of_string (string_of_int b)))
    burns;
  Urts.ring_publish ring;
  ring

let sched_on p config =
  Sched.create ~shared_clock:p.Platform.clock ~telemetry:(telemetry p) config

(* Run one job per entry of [jobs] ((owner core, burns) pairs) through
   one [Sched.run] on a fresh platform: a ring whose slots burn [burns],
   or with [~kind:`Calls] a call job whose calls do.  Returns the stats,
   each job's placement (the serving core, or -1 for an [Error]) and a
   ring's dispatch cycles. *)
let place_jobs ?(kind = `Ring) ?(id = fun _ -> 1) config jobs =
  let p = Platform.create ~seed:4400L () in
  let handle = burner p ~seed_name:"sched-place" in
  let sched = sched_on p config in
  let shards = List.length jobs in
  let placed =
    List.mapi
      (fun shard (core, burns) ->
        let where = Array.make (List.length burns) (-2) in
        let cycles = ref 0 in
        let on_result ~index ~core result =
          where.(index) <- (match result with Ok _ -> core | Error _ -> -1)
        in
        (match kind with
        | `Ring ->
            Sched.submit_ring sched ~core ~on_result
              ~on_slice:(fun ~cycles:c -> cycles := !cycles + c)
              (burn_ring ~id handle ~shard ~shards burns)
        | `Calls ->
            Sched.submit sched ~core ~on_result ~urts:handle
              (List.mapi
                 (fun i b -> (id i, Bytes.of_string (string_of_int b)))
                 burns));
        (where, cycles))
      jobs
  in
  let stats = Sched.run sched in
  Urts.destroy handle;
  (stats, List.map (fun (w, c) -> (Array.to_list w, !c)) placed)

let busy_sum (s : Sched.stats) =
  Array.fold_left (fun acc (c : Sched.core_stats) -> acc + c.Sched.busy) 0
    s.Sched.per_core

let advances (s : Sched.stats) =
  Array.to_list (Array.map (fun (c : Sched.core_stats) -> c.Sched.cycles) s.Sched.per_core)

(* A core whose clock lags from an earlier run gets no head start: each
   core serves its own ring and advances by exactly that ring's cycles,
   with no join. *)
let test_lagging_core () =
  let p = Platform.create ~seed:4410L () in
  let handle = burner p ~seed_name:"sched-lag" in
  let sched = sched_on p Sched.default_config in
  let r0 = burn_ring handle ~shard:0 ~shards:2 [ 60_000 ] in
  Sched.submit_ring sched ~core:0 r0;
  ignore (Sched.run sched : Sched.stats);
  Alcotest.(check bool) "core 1 lags after the first run" true
    (Sched.core_cycles sched 1 < Sched.core_cycles sched 0);
  Urts.ring_reset r0;
  stage r0 (1, Bytes.of_string "40000");
  Urts.ring_publish r0;
  let r1 = burn_ring handle ~shard:1 ~shards:2 [ 30_000 ] in
  let own = Array.make 2 0 in
  List.iteri
    (fun core ring ->
      Sched.submit_ring sched ~core
        ~on_slice:(fun ~cycles -> own.(core) <- own.(core) + cycles)
        ring)
    [ r0; r1 ];
  let before = Array.init 2 (Sched.core_cycles sched) in
  let joins = (Sched.stats sched).Sched.joins in
  let s = Sched.run sched in
  Array.iteri
    (fun core own ->
      Alcotest.(check int)
        (Printf.sprintf "core %d advances by its own ring" core)
        own
        (Sched.core_cycles sched core - before.(core)))
    own;
  Alcotest.(check int) "no join" joins s.Sched.joins;
  Urts.destroy handle

(* One 16-slot ring, or one 16-call job, on 2 cores: the idle core joins
   it and serves a suffix of its units from the tail.  The work is the
   1-core run's; the critical path is shorter.  Joining the call job
   costs core 1 [Sched.steal_cycles] once, and nothing per call. *)
let test_join_from_tail () =
  let burns = List.init 16 (fun i -> 20_000 + (1_000 * i)) in
  List.iter
    (fun (what, kind) ->
      let check_int name = Alcotest.(check int) (what ^ ": " ^ name) in
      let run cores =
        place_jobs ~kind { Sched.default_config with Sched.cores } [ (0, burns) ]
      in
      let one, _ = run 1 in
      let two, placed = run 2 in
      let where, _ = List.hd placed in
      let first_joined =
        match List.find_index (fun c -> c = 1) where with
        | Some i -> i
        | None -> Alcotest.failf "%s: core 1 served nothing" what
      in
      Alcotest.(check bool) (what ^ ": core 0 serves the head") true (first_joined > 0);
      Alcotest.(check (list int))
        (what ^ ": core 1 serves a suffix")
        (List.init 16 (fun i -> if i < first_joined then 0 else 1))
        where;
      check_int "one join" 1 two.Sched.joins;
      check_int "busy equals the 1-core run's" (busy_sum one) (busy_sum two);
      Alcotest.(check bool) (what ^ ": the slowest core beats one core") true
        (List.fold_left max 0 (advances two) < List.fold_left max 0 (advances one));
      let again, placed' = run 2 in
      Alcotest.(check (list int))
        (what ^ ": bit-identical clocks") (advances two) (advances again);
      Alcotest.(check (list int))
        (what ^ ": bit-identical placement") where (fst (List.hd placed'));
      if kind = `Calls then
        let c1 = two.Sched.per_core.(1) in
        check_int "core 1 pays the join price once" Sched.steal_cycles
          (c1.Sched.cycles - c1.Sched.busy))
    [ ("ring", `Ring); ("call job", `Calls) ]

(* Where a core joins reads only unclaimed-slot counts and queue order:
   swapping the per-slot costs of two equally long rings leaves every
   slot on the same core. *)
let test_join_ignores_costs () =
  let config = { Sched.default_config with Sched.cores = 6 } in
  let split cheap dear =
    let _, placed = place_jobs config [ (0, cheap); (1, dear) ] in
    List.map fst placed
  in
  let cheap = [ 10_000; 10_000; 10_000 ] and dear = [ 90_000; 90_000; 90_000 ] in
  let a = split cheap dear and b = split dear cheap in
  Alcotest.(check (list (list int))) "same split" a b;
  Alcotest.(check (list (list int)))
    "owners take the head, joiners the tail" [ [ 0; 4; 2 ]; [ 1; 5; 3 ] ] a

(* No core joins a ring that failed under [drop_on_error] (its cycles
   stay on its owner), nor any ring with work stealing off. *)
let test_no_join () =
  let failing =
    place_jobs ~id:(fun i -> if i = 2 then 99 else 1)
      { Sched.default_config with Sched.drop_on_error = true }
      [ (0, List.init 8 (fun _ -> 20_000)) ]
  in
  let solo =
    place_jobs
      { Sched.default_config with Sched.work_stealing = false }
      [ (0, List.init 8 (fun _ -> 20_000)) ]
  in
  List.iter
    (fun (what, expect, ((s : Sched.stats), placed)) ->
      let where, cycles = List.hd placed in
      Alcotest.(check (list int)) (what ^ ": slots") (List.init 8 (fun _ -> expect)) where;
      Alcotest.(check int) (what ^ ": no join") 0 s.Sched.joins;
      Alcotest.(check int) (what ^ ": core 1 idle") 0 s.Sched.per_core.(1).Sched.cycles;
      Alcotest.(check int) (what ^ ": owner carries the ring") cycles
        s.Sched.per_core.(0).Sched.busy)
    [ ("failed ring", -1, failing); ("stealing off", 0, solo) ];
  Alcotest.(check int) "failed ring: every slot failed" 8
    (fst failing).Sched.failed_requests

(* Without [drop_on_error] a failing ring aborts the run: the jobs run so
   far (a ring and a call job on core 0) stay charged to their owners,
   nothing is delivered and nothing stays queued, so the next run serves
   only what is submitted to it. *)
let test_strict_ring_failure () =
  let p = Platform.create ~seed:4420L () in
  let handle = burner p ~seed_name:"sched-strict" in
  let sched = sched_on p Sched.default_config in
  let good = burn_ring handle ~shard:0 ~shards:2 [ 20_000; 20_000 ] in
  let bad =
    burn_ring ~id:(fun _ -> 99) handle ~shard:1 ~shards:2 [ 20_000 ]
  in
  let delivered = ref 0 in
  let p0 = Cycles.now p.Platform.clock in
  Sched.submit_ring sched ~core:0 good;
  Sched.submit sched ~core:0
    ~on_result:(fun ~index:_ ~core:_ _ -> incr delivered)
    ~urts:handle
    (List.init 3 (fun _ -> (1, Bytes.of_string "20000")));
  Sched.submit_ring sched ~core:1 bad;
  expect_enclave_error "a ring with an unknown ECALL" (fun () ->
      Sched.run sched);
  Alcotest.(check int) "every job run charged to its owner"
    (Cycles.now p.Platform.clock - p0)
    (busy_sum (Sched.stats sched));
  Urts.ring_reset good;
  stage good (1, Bytes.of_string "5000");
  Urts.ring_publish good;
  Sched.submit_ring sched ~core:0 good;
  let served = (Sched.stats sched).Sched.total_requests in
  let s = Sched.run sched in
  Alcotest.(check int) "the next run serves only its own ring" 1
    (s.Sched.total_requests - served);
  Alcotest.(check int) "the aborted call job delivered nothing" 0 !delivered;
  Urts.destroy handle

(* --- 2-enclave / 2-core chaos with invariant checks ----------------------- *)

let test_chaos_invariants () =
  let seeds = List.init 12 (fun i -> Int64.of_int (5000 + (37 * i))) in
  List.iter
    (fun seed ->
      let p = Platform.create ~seed () in
      let plan = Fault.plan_of_seed ~faults:2 seed in
      let handles =
        List.init 2 (fun i ->
            make_enclave p
              ~seed_name:(Printf.sprintf "chaos-sched-%d" i)
              ~burn:30_000)
      in
      let sched =
        sched_on p { two_cores with Sched.drop_on_error = true }
      in
      List.iteri
        (fun i handle ->
          Sched.submit sched ~urts:handle
            (requests ~tag:(Printf.sprintf "chaos%d" i) 6))
        handles;
      Fault.install ~telemetry:(telemetry p) plan;
      let stats =
        try Sched.run sched
        with exn ->
          Fault.clear ();
          Alcotest.fail
            (Printf.sprintf "seed %Ld (plan %s): scheduler aborted: %s" seed
               (Fault.plan_to_string plan) (Printexc.to_string exn))
      in
      Fault.clear ();
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: every request accounted for" seed)
        true
        (stats.Sched.total_requests + stats.Sched.failed_requests = 12);
      let findings = Invariants.check p.Platform.monitor in
      if findings <> [] then
        Alcotest.fail
          (Printf.sprintf "seed %Ld: post-run invariant violation: %s" seed
             (Invariants.summary findings));
      List.iter Urts.destroy handles)
    seeds

let suite =
  [
    Alcotest.test_case "batch ring semantics" `Quick test_batch_semantics;
    Alcotest.test_case "batch amortizes the world switch" `Quick
      test_batch_amortizes_transition;
    Alcotest.test_case "ring retry resumes at the faulted slot" `Quick
      test_ring_retry_resumes;
    Alcotest.test_case "determinism: same seed, same totals" `Quick
      test_determinism;
    Alcotest.test_case "requests/sec scales with cores" `Quick test_core_scaling;
    Alcotest.test_case "work stealing leaves totals invariant" `Quick
      test_work_stealing_invariance;
    Alcotest.test_case "finished jobs are released" `Quick
      test_finished_jobs_released;
    Alcotest.test_case "2-enclave/2-core chaos with invariant checks" `Quick
      test_chaos_invariants;
    Alcotest.test_case "ring images grow on demand" `Quick test_ring_images_grow;
    Alcotest.test_case "channel ring opens and seals in the worker" `Quick
      test_channel_ring;
    Alcotest.test_case "a lagging core runs only its own ring" `Quick
      test_lagging_core;
    Alcotest.test_case "an idle core joins a ring from the tail" `Quick
      test_join_from_tail;
    Alcotest.test_case "joins ignore recorded slot costs" `Quick
      test_join_ignores_costs;
    Alcotest.test_case "no join on a failed ring or without stealing" `Quick
      test_no_join;
    Alcotest.test_case "a strict-mode ring failure aborts the run" `Quick
      test_strict_ring_failure;
  ]
