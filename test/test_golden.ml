(* Golden cycle-count regression tests.

   The constants below were recorded from the pre-optimization simulation
   kernels (PR 2 baseline).  Perf work on `Mem_sim`, `Tlb`, `Cache` or the
   crypto kernels must keep every number here bit-identical: simulated
   cycles, RNG stream position, EPC swap counts, TLB/cache hit statistics
   and monitor telemetry counters are the repo's cycle-identity contract
   (see EXPERIMENTS.md, "Wall-clock methodology").  If a change moves one
   of these values it is a model change, not an optimization, and belongs
   in its own PR with recalibrated expectations. *)

open Hyperenclave

let check = Alcotest.(check int)
let mib = 1024 * 1024

let mem_sim_scenario ~engine ~translation f =
  let clock = Cycles.create () in
  let rng = Rng.create ~seed:42L in
  let sim =
    Mem_sim.create ~clock ~cost:Cost_model.default ~rng ~engine ~translation ()
  in
  f sim;
  (clock, rng, sim)

let assert_scenario name (clock, rng, sim) ~cycles ~swaps ~tlb ~cache ~resident
    ~rng_probe =
  check (name ^ " cycles") cycles (Cycles.now clock);
  check (name ^ " swaps") swaps (Mem_sim.swaps sim);
  let lookups, hits = Mem_sim.tlb_stats sim in
  check (name ^ " tlb lookups") (fst tlb) lookups;
  check (name ^ " tlb hits") (snd tlb) hits;
  let accesses, misses = Mem_sim.cache_stats sim in
  check (name ^ " cache accesses") (fst cache) accesses;
  check (name ^ " cache misses") (snd cache) misses;
  check (name ^ " resident") resident (Mem_sim.resident_pages sim);
  (* The probe draw proves the scan left the RNG stream untouched at the
     exact same position as the per-line reference implementation. *)
  check (name ^ " rng stream") rng_probe (Rng.int rng 1_000_000)

let test_seq_mee () =
  let r =
    mem_sim_scenario
      ~engine:(Hw.Mem_crypto.Mee { epc_bytes = 8 * mib })
      ~translation:Mem_sim.One_level
      (fun sim ->
        Mem_sim.seq_scan sim ~base:0 ~bytes:(32 * mib) ~write:false;
        Mem_sim.seq_scan sim ~base:4096 ~bytes:(2 * mib) ~write:true;
        Mem_sim.seq_scan sim ~base:100 ~bytes:70_000 ~write:false)
  in
  assert_scenario "seq_mee" r ~cycles:307_287_187 ~swaps:2561
    ~tlb:(296_006, 291_474) ~cache:(296_006, 294_975) ~resident:2048
    ~rng_probe:818_853

let test_rand_mee () =
  let r =
    mem_sim_scenario
      ~engine:(Hw.Mem_crypto.Mee { epc_bytes = 8 * mib })
      ~translation:Mem_sim.Nested
      (fun sim ->
        Mem_sim.random_access sim ~base:0 ~working_set:(16 * mib)
          ~count:100_000 ~write:true;
        Mem_sim.random_access sim ~base:(64 * mib) ~working_set:mib
          ~count:50_000 ~write:false)
  in
  assert_scenario "rand_mee" r ~cycles:2_583_263_098 ~swaps:48_891
    ~tlb:(150_000, 86_898) ~cache:(150_000, 98_758) ~resident:2048
    ~rng_probe:618_663

let test_touch_sme () =
  let r =
    mem_sim_scenario ~engine:Hw.Mem_crypto.Sme ~translation:Mem_sim.One_level
      (fun sim ->
        let addr = ref 97 in
        for i = 1 to 2_000 do
          let len = 1 + ((i * 2654435761) land 0x3fff) in
          Mem_sim.touch_bytes sim ~addr:!addr ~len ~write:(i land 1 = 0);
          Mem_sim.touch_dependent sim ~addr:(!addr + 13) ~len:(1 + (len / 3))
            ~write:(i land 3 = 0);
          addr := !addr + len + 179
        done)
  in
  assert_scenario "touch_sme" r ~cycles:39_363_450 ~swaps:0
    ~tlb:(345_283, 341_194) ~cache:(345_283, 257_966) ~resident:0
    ~rng_probe:818_853

let test_fig11_points () =
  (* The fig11 metric itself (avg cycles/access) at two moderate sizes;
     float division of exact integer cycle counts, so bit-stable. *)
  let avg ~engine ~pattern ~ws =
    let clock = Cycles.create () in
    let sim =
      Mem_sim.create ~clock ~cost:Cost_model.default
        ~rng:(Rng.create ~seed:5L) ~engine ()
    in
    Mem_sim.avg_access_cycles sim ~pattern ~working_set:ws
  in
  Alcotest.(check string)
    "mee random 16MB" "643.656250"
    (Printf.sprintf "%.6f"
       (avg
          ~engine:(Hw.Mem_crypto.Mee { epc_bytes = Platform.sgx_epc_bytes })
          ~pattern:`Random ~ws:(16 * mib)));
  Alcotest.(check string)
    "sme seq 4MB" "41.000000"
    (Printf.sprintf "%.6f"
       (avg ~engine:Hw.Mem_crypto.Sme ~pattern:`Seq ~ws:(4 * mib)))

let test_table1_ecall () =
  (* Trimmed Table 1 methodology: 50 empty GU ECALLs against a fresh
     platform.  Covers monitor world switches, SDK edge paths and the
     enclave launch measurement (Sha256 over every EADDed page). *)
  let platform = Platform.create ~seed:101L () in
  let backend =
    Backend.create platform
      {
        (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
        Backend.handlers = [ (1, fun _ _ -> Bytes.empty) ];
      }
  in
  let total = ref 0 in
  for _ = 1 to 50 do
    let _, c =
      Cycles.time platform.Platform.clock (fun () ->
          backend.Backend.call ~id:1 ~direction:Edge.In ())
    in
    total := !total + c
  done;
  check "ecall cycles" 474_000 !total;
  check "platform clock" 4_712_139 (Cycles.now platform.Platform.clock);
  backend.Backend.destroy ()

let test_fig7_marshalling () =
  (* Trimmed Fig. 7 methodology: 16 KiB in&out ECALLs through the
     marshalling buffer, plus the full monitor telemetry counter set. *)
  let platform = Platform.create ~seed:303L () in
  let enclave =
    Urts.create ~kmod:platform.Platform.kmod ~proc:platform.Platform.proc
      ~rng:platform.Platform.rng ~signer:platform.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:[ (3, fun _ input -> input) ]
      ~ocalls:[]
  in
  let payload = Bytes.make 16384 'd' in
  let total = ref 0 in
  for _ = 1 to 20 do
    let _, c =
      Cycles.time platform.Platform.clock (fun () ->
          ignore
            (Urts.ecall enclave ~id:3 ~data:payload ~direction:Edge.In_out ()))
    in
    total := !total + c
  done;
  check "in&out cycles" 355_180 !total;
  check "platform clock" 4_593_319 (Cycles.now platform.Platform.clock);
  let snap =
    Telemetry.snapshot (Monitor.telemetry platform.Platform.monitor)
  in
  Alcotest.(check (list (pair string int)))
    "telemetry counters"
    [
      ("epc.alloc", 22);
      ("hypercall.eadd", 22);
      ("hypercall.eadd_tcs", 2);
      ("hypercall.ecreate", 1);
      ("hypercall.einit", 1);
      ("sdk.ecall", 20);
      ("switch.eenter", 20);
      ("switch.eexit", 20);
    ]
    snap.Telemetry.counters;
  Urts.destroy enclave

(* Randomized equivalence: the page-granular fast paths must behave
   bit-for-bit like the per-line reference walks on arbitrary bases,
   lengths and engines — same cycles, same swap counts, same TLB/cache
   statistics, same residency, and the same RNG stream position
   afterwards (proven by drawing one probe from each sim's RNG). *)
let equivalence_prop =
  let open QCheck in
  Test.make ~name:"fast paths = per-line reference (randomized)" ~count:60
    (quad (int_range 0 200_000) (int_range 1 150_000) (int_range 0 2)
       (int_range 8 64))
    (fun (base, bytes, engine_ix, epc_pages) ->
      let engine =
        match engine_ix with
        | 0 -> Hw.Mem_crypto.Plain
        | 1 -> Hw.Mem_crypto.Sme
        | _ -> Hw.Mem_crypto.Mee { epc_bytes = epc_pages * 4096 }
      in
      let mk () =
        let clock = Cycles.create () in
        let rng = Rng.create ~seed:99L in
        ( clock,
          rng,
          Mem_sim.create ~clock ~cost:Cost_model.default ~rng ~engine
            ~translation:Mem_sim.Nested () )
      in
      let fc, fr, fast = mk () in
      let rc, rr, refr = mk () in
      Mem_sim.seq_scan fast ~base ~bytes ~write:false;
      Mem_sim.seq_scan_reference refr ~base ~bytes ~write:false;
      Mem_sim.touch_bytes fast ~addr:(base + 13) ~len:(1 + (bytes / 3))
        ~write:true;
      Mem_sim.touch_bytes_reference refr ~addr:(base + 13)
        ~len:(1 + (bytes / 3)) ~write:true;
      Mem_sim.touch_dependent fast ~addr:(base + 77) ~len:(1 + (bytes / 5))
        ~write:false;
      Mem_sim.touch_dependent_reference refr ~addr:(base + 77)
        ~len:(1 + (bytes / 5)) ~write:false;
      Cycles.now fc = Cycles.now rc
      && Mem_sim.swaps fast = Mem_sim.swaps refr
      && Mem_sim.tlb_stats fast = Mem_sim.tlb_stats refr
      && Mem_sim.cache_stats fast = Mem_sim.cache_stats refr
      && Mem_sim.resident_pages fast = Mem_sim.resident_pages refr
      && Rng.int fr 1_000_000 = Rng.int rr 1_000_000)

let suite =
  [
    Alcotest.test_case "golden: Mem_sim seq scan (Mee)" `Quick test_seq_mee;
    Alcotest.test_case "golden: Mem_sim random access (Mee)" `Quick
      test_rand_mee;
    Alcotest.test_case "golden: Mem_sim object touches (Sme)" `Quick
      test_touch_sme;
    Alcotest.test_case "golden: fig11 latency points" `Quick test_fig11_points;
    Alcotest.test_case "golden: table1 GU ECALL cycles" `Quick
      test_table1_ecall;
    Alcotest.test_case "golden: fig7 marshalling cycles + telemetry" `Quick
      test_fig7_marshalling;
    QCheck_alcotest.to_alcotest equivalence_prop;
  ]
