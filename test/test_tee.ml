(* The unified backend layer and the memory-system simulator. *)

open Hyperenclave

let echo_handlers =
  [
    ( 1,
      fun (env : Backend.env) input ->
        env.Backend.compute 100;
        Bytes.map Char.uppercase_ascii input );
  ]

let test_platform_determinism () =
  let a = Platform.create ~seed:123L () in
  let b = Platform.create ~seed:123L () in
  Alcotest.(check bool)
    "same seed, same hapk" true
    (Bytes.equal (Monitor.hapk a.Platform.monitor) (Monitor.hapk b.Platform.monitor));
  let c = Platform.create ~seed:124L () in
  Alcotest.(check bool)
    "different seed, different hapk" false
    (Bytes.equal (Monitor.hapk a.Platform.monitor) (Monitor.hapk c.Platform.monitor))

let test_backends_agree_on_results () =
  (* The same handler must produce identical outputs on every backend —
     only the cycle accounting differs. *)
  let native =
    Backend.native ~clock:(Cycles.create ()) ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:1L) ~handlers:echo_handlers ~ocalls:[]
  in
  let sgx =
    Backend.sgx ~clock:(Cycles.create ()) ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:2L) ~handlers:echo_handlers ~ocalls:[] ()
  in
  let p = Platform.create ~seed:5000L () in
  let results =
    List.map
      (fun (backend : Backend.t) ->
        let r =
          backend.Backend.call ~id:1 ~data:(Bytes.of_string "same input")
            ~direction:Edge.In_out ()
        in
        backend.Backend.destroy ();
        Bytes.to_string r)
      (native :: sgx
      :: List.map
           (fun mode ->
             Backend.create p
               {
                 (Backend.config (Backend.Hyperenclave mode)) with
                 Backend.handlers = echo_handlers;
               })
           Sgx_types.all_modes)
  in
  List.iter (fun r -> Alcotest.(check string) "identical output" "SAME INPUT" r) results

let test_backend_cost_ordering () =
  (* Empty calls: native < HU < GU < SGX. *)
  let cost_of (backend : Backend.t) =
    let _, c =
      Cycles.time backend.Backend.clock (fun () ->
          backend.Backend.call ~id:1 ~direction:Edge.In ())
    in
    backend.Backend.destroy ();
    c
  in
  let native =
    cost_of
      (Backend.native ~clock:(Cycles.create ()) ~cost:Cost_model.default
         ~rng:(Rng.create ~seed:1L) ~handlers:echo_handlers ~ocalls:[])
  in
  let p = Platform.create ~seed:5001L () in
  let enclave mode =
    cost_of
      (Backend.create p
         {
           (Backend.config (Backend.Hyperenclave mode)) with
           Backend.handlers = echo_handlers;
         })
  in
  let hu = enclave Sgx_types.HU in
  let gu = enclave Sgx_types.GU in
  let sgx =
    cost_of
      (Backend.sgx ~clock:(Cycles.create ()) ~cost:Cost_model.default
         ~rng:(Rng.create ~seed:2L) ~handlers:echo_handlers ~ocalls:[] ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "native(%d) < HU(%d) < GU(%d) < SGX(%d)" native hu gu sgx)
    true
    (native < hu && hu < gu && gu < sgx)

let mem_fixture engine =
  Mem_sim.create ~clock:(Cycles.create ()) ~cost:Cost_model.default
    ~rng:(Rng.create ~seed:3L) ~engine ()

let test_mem_sim_llc_knee () =
  let sim = mem_fixture Hw.Mem_crypto.Plain in
  let small = Mem_sim.avg_access_cycles sim ~pattern:`Seq ~working_set:(1 lsl 20) in
  let large = Mem_sim.avg_access_cycles sim ~pattern:`Seq ~working_set:(32 lsl 20) in
  Alcotest.(check bool)
    (Printf.sprintf "in-LLC (%f) cheaper than DRAM (%f)" small large)
    true (small < large);
  Alcotest.(check bool)
    "in-LLC ~= hit cost" true
    (small < float_of_int (2 * Cost_model.default.Cost_model.cache_hit))

let test_mem_sim_engine_ordering () =
  let ws = 32 lsl 20 in
  let lat engine = Mem_sim.avg_access_cycles (mem_fixture engine) ~pattern:`Random ~working_set:ws in
  let plain = lat Hw.Mem_crypto.Plain in
  let sme = lat Hw.Mem_crypto.Sme in
  let mee = lat (Hw.Mem_crypto.Mee { epc_bytes = Platform.sgx_epc_bytes }) in
  Alcotest.(check bool)
    (Printf.sprintf "plain(%f) < sme(%f) < mee(%f)" plain sme mee)
    true
    (plain < sme && sme < mee)

let test_mem_sim_epc_cliff () =
  let epc = 4 lsl 20 in
  let sim = mem_fixture (Hw.Mem_crypto.Mee { epc_bytes = epc }) in
  let inside = Mem_sim.avg_access_cycles sim ~pattern:`Random ~working_set:(2 lsl 20) in
  let outside = Mem_sim.avg_access_cycles sim ~pattern:`Random ~working_set:(16 lsl 20) in
  Alcotest.(check bool)
    (Printf.sprintf "EPC cliff: %f >> %f" outside inside)
    true
    (outside > 10.0 *. inside)

let test_mem_sim_swaps_counted () =
  let sim = mem_fixture (Hw.Mem_crypto.Mee { epc_bytes = 16 * 4096 }) in
  Mem_sim.seq_scan sim ~base:0 ~bytes:(64 * 4096) ~write:false;
  Mem_sim.seq_scan sim ~base:0 ~bytes:(64 * 4096) ~write:false;
  Alcotest.(check bool) "swaps recorded" true (Mem_sim.swaps sim > 0)

let test_mem_sim_tlb_translation_cost () =
  let lat translation =
    let sim =
      Mem_sim.create ~clock:(Cycles.create ()) ~cost:Cost_model.default
        ~rng:(Rng.create ~seed:4L) ~engine:Hw.Mem_crypto.Plain ~translation ()
    in
    (* Touch many distinct pages with a cold TLB. *)
    let clock_before = Mem_sim.swaps sim in
    ignore clock_before;
    let c = Cycles.create () in
    let sim2 =
      Mem_sim.create ~clock:c ~cost:Cost_model.default
        ~rng:(Rng.create ~seed:4L) ~engine:Hw.Mem_crypto.Plain ~translation ()
    in
    for i = 0 to 99 do
      Mem_sim.touch_bytes sim2 ~addr:(i * 4096) ~len:8 ~write:false
    done;
    Cycles.now c
  in
  Alcotest.(check bool)
    "nested walks cost more" true
    (lat Mem_sim.Nested > lat Mem_sim.One_level)

(* The simulator's per-line kernels allocate nothing once warm: no
   closure per hash probe, no boxed [~write] per cache line and no boxed
   RNG state per draw, which cost a 64 KiB scan 2,144 words, a 1 KiB
   touch 38, a 512-byte dependent touch 22 and a random access of 6
   lines 36.  The random access's working set fits the TLB, so no
   eviction draws more. *)
let test_mem_sim_allocation () =
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to 100 do
      f ()
    done;
    (Gc.minor_words () -. w0) /. 100.
  in
  let sim =
    Mem_sim.create ~clock:(Cycles.create ()) ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:5L) ~engine:Hw.Mem_crypto.Sme
      ~translation:Mem_sim.Nested ()
  in
  List.iter
    (fun (name, f) ->
      let w = words f in
      if w > 0. then
        Alcotest.failf "warm %s allocated %.2f minor words per call" name w)
    [
      ( "seq_scan",
        fun () -> Mem_sim.seq_scan sim ~base:0x2000_0000 ~bytes:65536 ~write:false );
      ( "touch_bytes",
        fun () -> Mem_sim.touch_bytes sim ~addr:0x1000_0040 ~len:1024 ~write:true );
      ( "touch_dependent",
        fun () ->
          Mem_sim.touch_dependent sim ~addr:0x1000_0000 ~len:512 ~write:false );
      ( "random_access",
        fun () ->
          Mem_sim.random_access sim ~base:0x7000_0000 ~working_set:(1 lsl 20)
            ~count:6 ~write:false );
    ]

let suite =
  [
    Alcotest.test_case "platform determinism" `Quick test_platform_determinism;
    Alcotest.test_case "backends agree on results" `Quick
      test_backends_agree_on_results;
    Alcotest.test_case "backend cost ordering" `Quick test_backend_cost_ordering;
    Alcotest.test_case "mem_sim LLC knee" `Quick test_mem_sim_llc_knee;
    Alcotest.test_case "mem_sim engine ordering" `Quick test_mem_sim_engine_ordering;
    Alcotest.test_case "mem_sim EPC cliff" `Quick test_mem_sim_epc_cliff;
    Alcotest.test_case "mem_sim swap counting" `Quick test_mem_sim_swaps_counted;
    Alcotest.test_case "mem_sim translation cost" `Quick
      test_mem_sim_tlb_translation_cost;
    Alcotest.test_case "mem_sim kernels allocate nothing once warm" `Quick
      test_mem_sim_allocation;
  ]
