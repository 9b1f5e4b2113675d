(* The deterministic fault-injection plane and the monitor invariant
   checker: plan derivation, site semantics, retry accounting, and the
   checker's ability to both pass clean states and flag corrupted ones.
   The chaos suite (test_chaos.ml) exercises the same machinery at scale
   against real workloads. *)

open Hyperenclave

(* Every test arms the global plane; make sure no schedule leaks into
   the rest of the suite even when an assertion throws. *)
let with_plane f =
  Fun.protect ~finally:Fault.clear f

let no_backoff _ = ()

let test_plan_determinism () =
  let a = Fault.plan_of_seed 7001L in
  let b = Fault.plan_of_seed 7001L in
  Alcotest.(check string)
    "equal seeds give equal plans" (Fault.plan_to_string a)
    (Fault.plan_to_string b);
  (* Across a spread of seeds the plans must actually vary. *)
  let distinct =
    List.sort_uniq compare
      (List.init 32 (fun i ->
           Fault.plan_to_string (Fault.plan_of_seed (Int64.of_int (9000 + i)))))
  in
  Alcotest.(check bool)
    (Printf.sprintf "plans vary across seeds (%d distinct/32)"
       (List.length distinct))
    true
    (List.length distinct > 16);
  (* Derivation must not touch the platform RNG streams: two platforms
     built from the same seed, one with plan derivation interleaved,
     stay identical. *)
  let p1 = Platform.create ~seed:7002L () in
  ignore (Fault.plan_of_seed 7003L);
  let p2 = Platform.create ~seed:7002L () in
  Alcotest.(check bool)
    "plan derivation leaves platform streams untouched" true
    (Bytes.equal (Monitor.hapk p1.Platform.monitor)
       (Monitor.hapk p2.Platform.monitor))

let test_explicit_schedule () =
  with_plane (fun () ->
      Fault.install
        [ { Fault.site = "tpm.seal"; nth = 3; kind = Fault.Permanent } ];
      Fault.point "tpm.seal";
      Fault.point "tpm.seal";
      (match Fault.point "tpm.seal" with
      | () -> Alcotest.fail "third hit did not fire"
      | exception Fault.Injected { site; kind } ->
          Alcotest.(check string) "site" "tpm.seal" site;
          Alcotest.(check string) "kind" "permanent" (Fault.kind_name kind));
      (* A spec fires once; the fourth hit passes. *)
      Fault.point "tpm.seal";
      Alcotest.(check int) "hit counter" 4 (Fault.hits "tpm.seal");
      Alcotest.(check int) "one injection" 1 (Fault.injected_count ()))

let test_disarmed_noop () =
  Fault.clear ();
  Alcotest.(check bool) "inactive" false (Fault.active ());
  Alcotest.(check bool) "check is None" true (Fault.check "os.ioctl" = None);
  Fault.point "os.ioctl";
  Alcotest.(check int) "no hits recorded while disarmed" 0
    (Fault.hits "os.ioctl")

let test_unregistered_site () =
  (* A misspelt site must fail loudly rather than never fire: a plan
     naming it is refused, and so is crossing it while a plan is armed.
     Disarmed, every site stays a no-op. *)
  with_plane (fun () ->
      let typo = "hypercall.dispach" in
      Fault.clear ();
      Alcotest.(check bool) "disarmed check is None" true (Fault.check typo = None);
      Fault.point typo;
      (match Fault.install [ { Fault.site = typo; nth = 1; kind = Fault.Permanent } ] with
      | () -> Alcotest.fail "plan with an unregistered site installed"
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) "rejected plan not armed" false (Fault.active ());
      Fault.install
        [ { Fault.site = "os.ioctl"; nth = 1; kind = Fault.Transient } ];
      (match Fault.point typo with
      | () -> Alcotest.fail "armed point accepted an unregistered site"
      | exception Invalid_argument _ -> ());
      (match Fault.check typo with
      | _ -> Alcotest.fail "armed check accepted an unregistered site"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "registered sites unaffected" 0 (Fault.hits "os.ioctl"))

let test_with_retries_accounting () =
  with_plane (fun () ->
      let tel = Telemetry.create () in
      (* One transient: absorbed on the second attempt. *)
      Fault.install ~telemetry:tel
        [ { Fault.site = "os.ioctl"; nth = 1; kind = Fault.Transient } ];
      let backoffs = ref [] in
      Fault.with_retries
        ~backoff:(fun a -> backoffs := a :: !backoffs)
        (fun () -> Fault.point "os.ioctl");
      Alcotest.(check (list int)) "backoff called for attempt 1" [ 1 ] !backoffs;
      Alcotest.(check int) "retried counted" 1 (Telemetry.counter tel "fault.retried");
      Alcotest.(check int) "survival counted" 1
        (Telemetry.counter tel "fault.survived.os.ioctl");
      (* Permanent: propagates immediately, no retry.  Fresh sink —
         telemetry deliberately accumulates across installs. *)
      let tel = Telemetry.create () in
      Fault.install ~telemetry:tel
        [ { Fault.site = "os.ioctl"; nth = 1; kind = Fault.Permanent } ];
      (match
         Fault.with_retries ~backoff:no_backoff (fun () ->
             Fault.point "os.ioctl")
       with
      | () -> Alcotest.fail "permanent fault was swallowed"
      | exception Fault.Injected { kind = Fault.Permanent; _ } -> ());
      Alcotest.(check int) "permanent not retried" 0
        (Telemetry.counter tel "fault.retried");
      (* Transient on every attempt: retries exhaust and re-raise. *)
      let tel = Telemetry.create () in
      Fault.install ~telemetry:tel
        (List.init 3 (fun i ->
             { Fault.site = "os.ioctl"; nth = i + 1; kind = Fault.Transient }));
      (match
         Fault.with_retries ~backoff:no_backoff (fun () ->
             Fault.point "os.ioctl")
       with
      | () -> Alcotest.fail "exhausted retries reported success"
      | exception Fault.Injected { kind = Fault.Transient; _ } -> ());
      Alcotest.(check int) "two retries before giving up" 2
        (Telemetry.counter tel "fault.retried");
      Alcotest.(check int) "prefix sum sees per-site counters" 2
        (Telemetry.sum_prefix tel "fault.retried."))

let test_observer_fires_pre_mutation () =
  with_plane (fun () ->
      let seen = ref [] in
      Fault.install
        [ { Fault.site = "tpm.quote"; nth = 1; kind = Fault.Transient } ];
      Fault.on_inject (fun ~site kind -> seen := (site, kind) :: !seen);
      (try Fault.point "tpm.quote" with Fault.Injected _ -> ());
      Alcotest.(check bool)
        "observer saw the injection" true
        (!seen = [ ("tpm.quote", Fault.Transient) ]))

let test_ioctl_retry_end_to_end () =
  (* A transient ioctl fault during enclave build is absorbed by the
     kernel module's retry loop: creation and a subsequent ECALL both
     succeed, and the telemetry shows the recovery. *)
  with_plane (fun () ->
      let p = Platform.create ~seed:7100L () in
      let tel = Telemetry.create () in
      Fault.install ~telemetry:tel
        [ { Fault.site = "os.ioctl"; nth = 1; kind = Fault.Transient } ];
      let handle =
        Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc
          ~rng:p.Platform.rng ~signer:p.Platform.signer
          ~config:(Urts.default_config Sgx_types.GU)
          ~ecalls:[ (1, fun _tenv input -> input) ]
          ~ocalls:[]
      in
      let reply =
        Urts.ecall handle ~id:1 ~data:(Bytes.of_string "ok") ~direction:Edge.In_out ()
      in
      Alcotest.(check string) "ECALL result intact" "ok" (Bytes.to_string reply);
      Alcotest.(check int) "fault fired" 1 (Telemetry.counter tel "fault.injected");
      Alcotest.(check int) "fault survived" 1
        (Telemetry.counter tel "fault.survived.os.ioctl");
      Urts.destroy handle;
      Alcotest.(check int) "monitor clean afterwards" 0
        (List.length (Invariants.check p.Platform.monitor)))

let test_invariants_clean_and_detect () =
  let p = Platform.create ~seed:7200L () in
  let m = p.Platform.monitor in
  Alcotest.(check bool) "fresh platform passes" true (Invariants.ok m);
  Alcotest.(check string) "summary reads ok" "ok"
    (Invariants.summary (Invariants.check m));
  (* R-1: map a reserved frame into the normal VM's nested table. *)
  let res_base, _ = Monitor.reserved_range m in
  Page_table.map (Monitor.normal_npt m) ~vpn:0xbeef ~frame:res_base
    ~perms:Page_table.rw;
  let findings = Invariants.check m in
  Alcotest.(check bool)
    "R-1 corruption flagged" true
    (List.exists (fun f -> f.Invariants.invariant = "R-1") findings);
  Page_table.unmap (Monitor.normal_npt m) ~vpn:0xbeef;
  (* R-3: grant a device DMA into the reserved region. *)
  Hw.Iommu.attach p.Platform.iommu ~device:"rogue-nic";
  Hw.Iommu.grant p.Platform.iommu ~device:"rogue-nic" ~first_frame:res_base
    ~nframes:1;
  let findings = Invariants.check m in
  Alcotest.(check bool)
    "R-3 corruption flagged" true
    (List.exists (fun f -> f.Invariants.invariant = "R-3") findings);
  Hw.Iommu.revoke p.Platform.iommu ~device:"rogue-nic" ~first_frame:res_base
    ~nframes:1;
  Alcotest.(check bool) "clean again after repair" true (Invariants.ok m)

let test_backoff_cost_shape () =
  let m = Cost_model.default in
  let c1 = World_switch.retry_backoff_cost m ~attempt:1 in
  let c2 = World_switch.retry_backoff_cost m ~attempt:2 in
  let c9 = World_switch.retry_backoff_cost m ~attempt:9 in
  Alcotest.(check bool) "exponential" true (c2 = 2 * c1);
  Alcotest.(check int) "capped at 2^6" (World_switch.retry_backoff_cost m ~attempt:6) c9

let suite =
  [
    Alcotest.test_case "plan determinism" `Quick test_plan_determinism;
    Alcotest.test_case "explicit schedule" `Quick test_explicit_schedule;
    Alcotest.test_case "disarmed no-op" `Quick test_disarmed_noop;
    Alcotest.test_case "unregistered site rejected" `Quick test_unregistered_site;
    Alcotest.test_case "retry accounting" `Quick test_with_retries_accounting;
    Alcotest.test_case "observer pre-mutation" `Quick
      test_observer_fires_pre_mutation;
    Alcotest.test_case "ioctl retry end-to-end" `Quick
      test_ioctl_retry_end_to_end;
    Alcotest.test_case "invariant checker" `Quick
      test_invariants_clean_and_detect;
    Alcotest.test_case "retry backoff cost" `Quick test_backoff_cost_shape;
  ]
