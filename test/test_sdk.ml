(* The SGX-compatible SDK: loader, edge calls, sealing, exceptions,
   in-enclave services. *)

open Hyperenclave

let fixture ?(mode = Sgx_types.GU) ?(seed = 3000L) ~ecalls ~ocalls () =
  let p = Platform.create ~seed () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config mode)
      ~ecalls ~ocalls
  in
  (p, handle)

let test_ecall_roundtrip () =
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (_ : Tenv.t) input ->
              Bytes.of_string (String.uppercase_ascii (Bytes.to_string input)) );
        ]
      ~ocalls:[] ()
  in
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "payload") ~direction:Edge.In_out ()
  in
  Alcotest.(check string) "data through ms buffer" "PAYLOAD" (Bytes.to_string reply);
  Alcotest.check_raises "unknown ecall" (Urts.Enclave_error "unknown ECALL 99")
    (fun () -> ignore (Urts.ecall handle ~id:99 ~direction:Edge.In ()));
  Urts.destroy handle

let test_ocall_roundtrip () =
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) input ->
              let reply = tenv.Tenv.ocall ~id:7 ~data:input Edge.In_out in
              Bytes.cat reply (Bytes.of_string "!") );
        ]
      ~ocalls:[ (7, fun data -> Bytes.cat (Bytes.of_string "echo:") data) ]
      ()
  in
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "ping") ~direction:Edge.In_out ()
  in
  Alcotest.(check string) "nested ocall" "echo:ping!" (Bytes.to_string reply);
  let stats = Urts.stats handle in
  Alcotest.(check int) "ecall count" 1 stats.Enclave.ecalls;
  Alcotest.(check int) "ocall count" 1 stats.Enclave.ocalls;
  Urts.destroy handle

let test_heap_and_memory () =
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              let a = tenv.Tenv.malloc 100 in
              let b = tenv.Tenv.malloc 100 in
              Alcotest.(check bool) "allocations disjoint" true (b >= a + 100);
              tenv.Tenv.write ~va:a (Bytes.of_string "in-enclave heap");
              tenv.Tenv.read ~va:a ~len:15 );
        ]
      ~ocalls:[] ()
  in
  Alcotest.(check string)
    "heap rw" "in-enclave heap"
    (Bytes.to_string (Urts.ecall handle ~id:1 ~direction:Edge.Out ()));
  Urts.destroy handle

let test_sealing () =
  let _, handle =
    fixture
      ~ecalls:
        [
          (1, fun (tenv : Tenv.t) input -> tenv.Tenv.seal input);
          (2, fun (tenv : Tenv.t) blob -> tenv.Tenv.unseal blob);
        ]
      ~ocalls:[] ()
  in
  let blob =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "database key")
      ~direction:Edge.In_out ()
  in
  Alcotest.(check bool)
    "ciphertext differs" false
    (Bytes.equal blob (Bytes.of_string "database key"));
  Alcotest.(check string)
    "unseal roundtrip" "database key"
    (Bytes.to_string (Urts.ecall handle ~id:2 ~data:blob ~direction:Edge.In_out ()));
  Urts.destroy handle

let test_sealing_bound_to_mrenclave () =
  (* A different enclave (different code identity) cannot unseal. *)
  let p = Platform.create ~seed:3001L () in
  let make seed_name =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed = seed_name }
      ~ecalls:
        [
          (1, fun (tenv : Tenv.t) input -> tenv.Tenv.seal input);
          (2, fun (tenv : Tenv.t) blob -> tenv.Tenv.unseal blob);
        ]
      ~ocalls:[]
  in
  let a = make "app-A" and b = make "app-B" in
  let blob =
    Urts.ecall a ~id:1 ~data:(Bytes.of_string "secret") ~direction:Edge.In_out ()
  in
  Alcotest.(check string)
    "same enclave unseals" "secret"
    (Bytes.to_string (Urts.ecall a ~id:2 ~data:blob ~direction:Edge.In_out ()));
  (try
     ignore (Urts.ecall b ~id:2 ~data:blob ~direction:Edge.In_out ());
     Alcotest.fail "expected unseal failure in foreign enclave"
   with Crypto.Authenc.Authentication_failure -> ());
  Urts.destroy a;
  Urts.destroy b

let run_exception_test mode =
  let fired = ref 0 in
  let _, handle =
    fixture ~mode
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              tenv.Tenv.register_exception_handler ~vector:"#UD" (fun _ ->
                  incr fired;
                  true);
              tenv.Tenv.raise_exception Sgx_types.Ud;
              tenv.Tenv.raise_exception Sgx_types.Ud;
              Bytes.of_string "survived" );
        ]
      ~ocalls:[] ()
  in
  let reply = Urts.ecall handle ~id:1 ~direction:Edge.Out () in
  Alcotest.(check string) "execution continued" "survived" (Bytes.to_string reply);
  Alcotest.(check int) "handler fired twice" 2 !fired;
  let stats = Urts.stats handle in
  Urts.destroy handle;
  stats

let test_exceptions_two_phase () =
  let stats = run_exception_test Sgx_types.GU in
  (* GU: each #UD goes out through an AEX. *)
  Alcotest.(check bool) "AEXes happened" true (stats.Enclave.aexs >= 2);
  Alcotest.(check int) "no in-enclave delivery" 0
    stats.Enclave.in_enclave_exceptions

let test_exceptions_in_enclave () =
  let stats = run_exception_test Sgx_types.P in
  Alcotest.(check int) "delivered in-enclave" 2
    stats.Enclave.in_enclave_exceptions;
  Alcotest.(check int) "no AEX" 0 stats.Enclave.aexs

let test_gc_page_permissions () =
  List.iter
    (fun mode ->
      let restored = ref 0 in
      let _, handle =
        fixture ~mode
          ~ecalls:
            [
              ( 1,
                fun (tenv : Tenv.t) _ ->
                  let buf = tenv.Tenv.malloc 4096 in
                  tenv.Tenv.write ~va:buf (Bytes.of_string "init");
                  tenv.Tenv.register_exception_handler ~vector:"#PF"
                    (fun vector ->
                      match vector with
                      | Sgx_types.Pf { va; _ } ->
                          incr restored;
                          tenv.Tenv.set_page_perms ~vpn:(va / 4096)
                            ~perms:Page_table.rw ~grant:true;
                          true
                      | _ -> false);
                  tenv.Tenv.set_page_perms ~vpn:(buf / 4096)
                    ~perms:Page_table.ro ~grant:false;
                  tenv.Tenv.write ~va:buf (Bytes.of_string "after fault");
                  tenv.Tenv.read ~va:buf ~len:11 );
            ]
          ~ocalls:[] ()
      in
      let reply = Urts.ecall handle ~id:1 ~direction:Edge.Out () in
      Alcotest.(check string)
        (Sgx_types.mode_name mode ^ " GC write landed")
        "after fault" (Bytes.to_string reply);
      Alcotest.(check int) "one fault" 1 !restored;
      Urts.destroy handle)
    [ Sgx_types.GU; Sgx_types.P ]

let test_ms_window_user_check () =
  (* user_check-style direct marshalling-buffer access from both sides. *)
  let p, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              let data = tenv.Tenv.ms_read ~off:1024 ~len:5 in
              tenv.Tenv.ms_write ~off:2048 (Bytes.map Char.uppercase_ascii data);
              Bytes.empty );
        ]
      ~ocalls:[] ()
  in
  ignore p;
  (* The app cannot see tenv, but the test can seed the buffer through the
     enclave's own window on a previous call; here we just verify the
     window is readable and writable and stays inside R-2. *)
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  Urts.destroy handle

let test_report_quote_api () =
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) data ->
              let report = tenv.Tenv.report ~report_data:data in
              report.Sgx_types.report_data );
        ]
      ~ocalls:[] ()
  in
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "nonce-xyz")
      ~direction:Edge.In_out ()
  in
  Alcotest.(check string)
    "report data embedded" "nonce-xyz"
    (String.sub (Bytes.to_string reply) 0 9);
  let quote = Urts.gen_quote handle ~report_data:(Bytes.of_string "q") in
  Alcotest.(check bool)
    "quote carries hapk" true
    (Bytes.length quote.Monitor.hapk = 32);
  Urts.destroy handle

let test_no_free_tcs () =
  let _, handle =
    fixture
      ~ecalls:
        [ (1, fun (tenv : Tenv.t) _ -> ignore (tenv.Tenv.ocall ~id:9 Edge.In); Bytes.empty) ]
      ~ocalls:[ (9, fun _ -> Bytes.empty) ]
      ()
  in
  (* Exhaust both TCS from outside while the enclave is idle. *)
  let enclave = Urts.enclave handle in
  List.iter (fun (tcs : Sgx_types.tcs) -> tcs.Sgx_types.busy <- true)
    enclave.Enclave.tcs_list;
  (try
     ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
     Alcotest.fail "expected no-free-TCS failure"
   with Urts.Enclave_error m ->
     Alcotest.(check bool) "typed TCS-busy error"
       true
       (String.length m >= 8 && String.sub m 0 8 = "TCS busy"));
  List.iter (fun (tcs : Sgx_types.tcs) -> tcs.Sgx_types.busy <- false)
    enclave.Enclave.tcs_list;
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  Urts.destroy handle

(* --- ms-region split offsets (PR 4 regression) --------------------------- *)

(* The input/output/ocalloc split used to be recomputed per call with
   truncating division, so an ms_bytes that doesn't divide evenly put
   the boundaries mid-page and the regions disagreed call to call.  Now
   the splits are rounded up to page boundaries once at build time:
   with ms_bytes = 5 pages the input region is exactly 3 pages (12288
   bytes), not the truncated 10240. *)
let test_ms_split_page_aligned () =
  let p = Platform.create ~seed:3010L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:
        { (Urts.default_config Sgx_types.GU) with Urts.ms_bytes = 5 * 4096 }
      ~ecalls:
        [
          (1, fun (_ : Tenv.t) input -> Bytes.of_string
                 (string_of_int (Bytes.length input)));
          (2, fun (_ : Tenv.t) input ->
                 (* reply sized by the caller: output-boundary probe *)
                 Bytes.make (int_of_string (Bytes.to_string input)) 'o');
        ]
      ~ocalls:[]
  in
  (* Exactly at the aligned input boundary: 3 pages fits... *)
  let at_boundary =
    Urts.ecall handle ~id:1 ~data:(Bytes.make 12288 'i') ~direction:Edge.In ()
  in
  Alcotest.(check string) "input of exactly 3 pages accepted" "12288"
    (Bytes.to_string at_boundary);
  (* ...and one byte past is a typed refusal, not a silent spill into
     the output region. *)
  (try
     ignore
       (Urts.ecall handle ~id:1 ~data:(Bytes.make 12289 'i') ~direction:Edge.In ());
     Alcotest.fail "input past the split accepted"
   with Urts.Enclave_error _ -> ());
  (* Output region is one page (pages 3..4): exactly 4096 fits, 4097
     refused. *)
  let out =
    Urts.ecall handle ~id:2 ~data:(Bytes.of_string "4096") ~direction:Edge.In_out ()
  in
  Alcotest.(check int) "output of exactly one page" 4096 (Bytes.length out);
  (try
     ignore
       (Urts.ecall handle ~id:2 ~data:(Bytes.of_string "4097")
          ~direction:Edge.In_out ());
     Alcotest.fail "output past the split accepted"
   with Urts.Enclave_error _ -> ());
  Urts.destroy handle

let test_ms_bytes_validated () =
  let p = Platform.create ~seed:3011L () in
  let make ms_bytes =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.ms_bytes }
      ~ecalls:[ (1, fun _ input -> input) ]
      ~ocalls:[]
  in
  (try
     ignore (make (4 * 4096 + 100));
     Alcotest.fail "unaligned ms_bytes accepted"
   with Urts.Enclave_error _ -> ());
  (try
     ignore (make (2 * 4096));
     Alcotest.fail "too-small ms_bytes accepted"
   with Urts.Enclave_error _ -> ());
  let ok = make (4 * 4096) in
  ignore (Urts.ecall ok ~id:1 ~data:(Bytes.of_string "x") ~direction:Edge.In_out ());
  Urts.destroy ok

(* --- re-entrant ECALL from an OCALL handler (PR 4 regression) ------------ *)

(* The old path re-entered on whatever TCS was "free", which could be
   the parked one — clobbering the suspended thread's SSA.  Now the TCS
   parked on an OCALL is reserved: a nested ECALL takes a different TCS
   or gets a typed TCS-busy refusal. *)
let test_nested_ecall_in_ocall () =
  let handle_ref = ref None in
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) input ->
              (* Outer ECALL: go out through an OCALL and come back. *)
              let nested = tenv.Tenv.ocall ~id:9 ~data:input Edge.In_out in
              Bytes.cat (Bytes.of_string "outer:") nested );
          (2, fun (_ : Tenv.t) input -> Bytes.cat (Bytes.of_string "inner:") input);
        ]
      ~ocalls:
        [
          ( 9,
            fun data ->
              (* Re-entrant ECALL from inside the OCALL handler: must run
                 on a TCS other than the parked one. *)
              let h = Option.get !handle_ref in
              Urts.ecall h ~id:2 ~data ~direction:Edge.In_out () );
        ]
      ()
  in
  handle_ref := Some handle;
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "go") ~direction:Edge.In_out ()
  in
  Alcotest.(check string)
    "nested ECALL ran on a second TCS" "outer:inner:go" (Bytes.to_string reply);
  (* All TCSs released afterwards. *)
  Alcotest.(check int) "both TCS free again" 2 (Urts.free_tcs_count handle);
  Urts.destroy handle

let test_nested_ecall_exhaustion_is_typed () =
  (* Depth 2 of nesting on a 2-TCS enclave: the innermost re-entry finds
     the pool exhausted (one TCS parked on each OCALL frame) and must be
     refused with a typed TCS-busy error — while the outer call still
     completes once the handler turns that refusal into a reply. *)
  let handle_ref = ref None in
  let ocall_9 _ =
    (* depth 1: the nested ECALL takes the second (last free) TCS *)
    Urts.ecall (Option.get !handle_ref) ~id:2 ~direction:Edge.Out ()
  in
  let ocall_10 _ =
    (* depth 2: no TCS left — expect the typed refusal right here *)
    try
      ignore (Urts.ecall (Option.get !handle_ref) ~id:3 ~direction:Edge.Out ());
      Bytes.of_string "UNEXPECTED-ENTRY"
    with Urts.Enclave_error m
      when String.length m >= 8 && String.sub m 0 8 = "TCS busy" ->
        Bytes.of_string "refused"
  in
  let _, handle =
    fixture ~seed:3012L
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              tenv.Tenv.ocall ~id:9 ~data:(Bytes.of_string "d1") Edge.In_out );
          ( 2,
            fun (tenv : Tenv.t) _ ->
              tenv.Tenv.ocall ~id:10 ~data:(Bytes.of_string "d2") Edge.In_out );
          (3, fun (_ : Tenv.t) _ -> Bytes.of_string "deepest");
        ]
      ~ocalls:[ (9, ocall_9); (10, ocall_10) ]
      ()
  in
  handle_ref := Some handle;
  let reply = Urts.ecall handle ~id:1 ~direction:Edge.Out () in
  Alcotest.(check string)
    "inner refusal typed, outer completed" "refused" (Bytes.to_string reply);
  Alcotest.(check int) "all TCS released" 2 (Urts.free_tcs_count handle);
  Urts.destroy handle

let test_code_identity_changes_measurement () =
  let p = Platform.create ~seed:3002L () in
  let make seed_name =
    let handle =
      Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
        ~signer:p.Platform.signer
        ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed = seed_name }
        ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
        ~ocalls:[]
    in
    let mr = Urts.mrenclave handle in
    Urts.destroy handle;
    mr
  in
  Alcotest.(check bool)
    "different code, different MRENCLAVE" false
    (Bytes.equal (make "version-1") (make "version-2"));
  Alcotest.(check bool)
    "same code, same MRENCLAVE" true
    (Bytes.equal (make "version-1") (make "version-1"))

let test_interrupt_guard () =
  let alarms = ref (-1) in
  let _, handle =
    fixture ~mode:Sgx_types.P
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              tenv.Tenv.arm_interrupt_guard ~window_cycles:5_000_000 ~threshold:20;
              (* Benign phase: timer-rate interrupts between real work. *)
              for _ = 1 to 10 do
                tenv.Tenv.compute 1_000_000;
                tenv.Tenv.interrupt_now ()
              done;
              let benign_alarms = tenv.Tenv.interrupt_alarms () in
              (* Attack phase: SGX-Step-style interrupt storm. *)
              for _ = 1 to 200 do
                tenv.Tenv.compute 500;
                tenv.Tenv.interrupt_now ()
              done;
              alarms := tenv.Tenv.interrupt_alarms ();
              Alcotest.(check int) "no alarm at benign rates" 0 benign_alarms;
              Bytes.empty );
        ]
      ~ocalls:[] ()
  in
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  Alcotest.(check bool)
    (Printf.sprintf "storm detected (%d alarms)" !alarms)
    true (!alarms >= 1);
  Urts.destroy handle

let test_interrupt_guard_p_only () =
  let _, handle =
    fixture ~mode:Sgx_types.GU
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              (try
                 tenv.Tenv.arm_interrupt_guard ~window_cycles:1000 ~threshold:1;
                 Alcotest.fail "GU must not arm the guard"
               with Monitor.Security_violation _ -> ());
              Bytes.empty );
        ]
      ~ocalls:[] ()
  in
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  Urts.destroy handle

let test_switchless_ocall () =
  let costs = ref (0, 0) in
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) input ->
              let r1, regular =
                Cycles.time tenv.Tenv.clock (fun () ->
                    tenv.Tenv.ocall ~id:7 ~data:input Edge.In_out)
              in
              let r2, switchless =
                Cycles.time tenv.Tenv.clock (fun () ->
                    tenv.Tenv.ocall_switchless ~id:7 ~data:input ())
              in
              Alcotest.(check string)
                "same result either way" (Bytes.to_string r1) (Bytes.to_string r2);
              costs := (regular, switchless);
              r2 );
        ]
      ~ocalls:[ (7, fun data -> Bytes.cat (Bytes.of_string ">") data) ]
      ()
  in
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "io") ~direction:Edge.In_out ()
  in
  Alcotest.(check string) "reply" ">io" (Bytes.to_string reply);
  let regular, switchless = !costs in
  Alcotest.(check bool)
    (Printf.sprintf "switchless (%d) at least 2x cheaper than regular (%d)"
       switchless regular)
    true
    (switchless * 2 < regular);
  Alcotest.(check int) "both counted as ocalls" 2 (Urts.stats handle).Enclave.ocalls;
  Urts.destroy handle

let test_local_attestation () =
  (* Enclave B proves its identity to enclave A on the same platform:
     B produces an EREPORT binding a channel nonce, the untrusted app
     relays it, A verifies it in-enclave via EVERIFYREPORT and checks
     B's MRENCLAVE against its policy. *)
  let p = Platform.create ~seed:3005L () in
  let make ~code_seed ~ecalls =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed }
      ~ecalls ~ocalls:[]
  in
  let b =
    make ~code_seed:"peer-B"
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) nonce ->
              let report = tenv.Tenv.report ~report_data:nonce in
              (* serialize: body fields the verifier needs + mac *)
              Bytes.concat (Bytes.of_string "|")
                [ report.Sgx_types.mrenclave; report.Sgx_types.mrsigner;
                  report.Sgx_types.report_data; report.Sgx_types.key_id;
                  report.Sgx_types.mac ] );
        ]
  in
  let b_mrenclave = Urts.mrenclave b in
  let verdict = ref "" in
  let a =
    make ~code_seed:"peer-A"
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) wire ->
              (match Bytes.split_on_char '|' wire with
              | [ mrenclave; mrsigner; report_data; key_id; mac ] ->
                  let report =
                    {
                      Sgx_types.mrenclave;
                      mrsigner;
                      attributes =
                        { Sgx_types.debug = false; mode = Sgx_types.GU; xfrm = 3 };
                      isv_prod_id = 1;
                      isv_svn = 1;
                      report_data;
                      key_id;
                      mac;
                    }
                  in
                  if not (tenv.Tenv.verify_report report) then
                    verdict := "bad-mac"
                  else if not (Bytes.equal mrenclave b_mrenclave) then
                    verdict := "wrong-peer"
                  else verdict := "trusted"
              | _ -> verdict := "malformed");
              Bytes.empty );
        ]
  in
  let nonce = Bytes.make 64 'n' in
  let wire = Urts.ecall b ~id:1 ~data:nonce ~direction:Edge.In_out () in
  ignore (Urts.ecall a ~id:1 ~data:wire ~direction:Edge.In_out ());
  Alcotest.(check string) "B accepted" "trusted" !verdict;
  (* A forged report (flipped MAC byte) must be rejected in-enclave. *)
  let forged = Bytes.copy wire in
  Bytes.set forged (Bytes.length forged - 1)
    (Char.chr (Char.code (Bytes.get forged (Bytes.length forged - 1)) lxor 1));
  ignore (Urts.ecall a ~id:1 ~data:forged ~direction:Edge.In_out ());
  Alcotest.(check string) "forgery rejected" "bad-mac" !verdict;
  Urts.destroy a;
  Urts.destroy b

let test_versioned_sealing_rollback () =
  (* Rollback protection: after the state is re-sealed, the old blob (a
     valid ciphertext the operator kept around) must be refused.  It was
     sealed under an older counter value, so it fails its tag like a
     tampered blob. *)
  let _, handle =
    fixture
      ~ecalls:
        [
          (1, fun (tenv : Tenv.t) data -> tenv.Tenv.seal_versioned data);
          ( 2,
            fun (tenv : Tenv.t) blob ->
              match tenv.Tenv.unseal_versioned blob with
              | data -> Bytes.cat (Bytes.of_string "ok:") data
              | exception Crypto.Authenc.Authentication_failure ->
                  Bytes.of_string "refused:authentication failure" );
        ]
      ~ocalls:[] ()
  in
  let v1 =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "state-1") ~direction:Edge.In_out ()
  in
  Alcotest.(check string)
    "current blob unseals" "ok:state-1"
    (Bytes.to_string (Urts.ecall handle ~id:2 ~data:v1 ~direction:Edge.In_out ()));
  let v2 =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "state-2") ~direction:Edge.In_out ()
  in
  Alcotest.(check string)
    "rollback to v1 refused" "refused:authentication failure"
    (Bytes.to_string (Urts.ecall handle ~id:2 ~data:v1 ~direction:Edge.In_out ()));
  Alcotest.(check string)
    "v2 still unseals" "ok:state-2"
    (Bytes.to_string (Urts.ecall handle ~id:2 ~data:v2 ~direction:Edge.In_out ()));
  Urts.destroy handle

let expect_enclave_error ~substring f =
  try
    ignore (f ());
    Alcotest.fail
      (Printf.sprintf "expected Enclave_error mentioning %S" substring)
  with Urts.Enclave_error m ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "error %S mentions %S" m substring)
      true (contains m substring)

let test_ocall_reply_overflow () =
  (* The OCALL request is bounds-checked against the ocalloc arena, but
     the reply reuses the slot and may be larger: an untrusted handler
     returning more than the arena holds must be refused, not let run off
     the end of the pinned buffer. *)
  let _, handle =
    fixture
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) input ->
              tenv.Tenv.ocall ~id:7 ~data:input Edge.In_out );
          ( 2,
            fun (tenv : Tenv.t) input ->
              tenv.Tenv.ocall_switchless ~id:7 ~data:input () );
        ]
        (* arena is the top quarter of the 256 KiB buffer = 64 KiB; the
           handler inflates any request far beyond it *)
      ~ocalls:[ (7, fun _ -> Bytes.make 66_000 'r') ]
      ()
  in
  expect_enclave_error ~substring:"overflows the ocalloc arena" (fun () ->
      Urts.ecall handle ~id:1 ~data:(Bytes.of_string "tiny request")
        ~direction:Edge.In_out ());
  expect_enclave_error ~substring:"overflows the ocalloc arena" (fun () ->
      Urts.ecall handle ~id:2 ~data:(Bytes.of_string "tiny request")
        ~direction:Edge.In_out ());
  Urts.destroy handle

let test_ocall_reply_larger_than_request_ok () =
  (* Replies bigger than the request are fine as long as they fit. *)
  let _, handle =
    fixture
      ~ecalls:
        [ (1, fun (tenv : Tenv.t) input -> tenv.Tenv.ocall ~id:7 ~data:input Edge.In_out) ]
      ~ocalls:[ (7, fun _ -> Bytes.make 4096 'R') ]
      ()
  in
  let reply =
    Urts.ecall handle ~id:1 ~data:(Bytes.of_string "x") ~direction:Edge.In_out ()
  in
  Alcotest.(check int) "inflated reply intact" 4096 (Bytes.length reply);
  Alcotest.(check bool) "contents intact" true
    (Bytes.for_all (fun c -> c = 'R') reply);
  Urts.destroy handle

let test_ecall_output_overflow () =
  (* ECALL results own [1/2, 3/4) of the marshalling buffer (64 KiB by
     default).  A larger result used to be written straight through —
     still inside the buffer, so R-2 never fired — silently corrupting
     the ocalloc arena. *)
  let _, handle =
    fixture
      ~ecalls:
        [
          (1, fun (_ : Tenv.t) _ -> Bytes.make 66_000 'o');
          (2, fun (_ : Tenv.t) input -> input);
        ]
      ~ocalls:[] ()
  in
  expect_enclave_error ~substring:"exceeds the marshalling output region"
    (fun () -> Urts.ecall handle ~id:1 ~direction:Edge.Out ());
  (* The failure path must have exited the enclave cleanly: a normal
     ECALL on the same handle still works. *)
  let reply =
    Urts.ecall handle ~id:2 ~data:(Bytes.of_string "still alive")
      ~direction:Edge.In_out ()
  in
  Alcotest.(check string) "enclave usable after refusal" "still alive"
    (Bytes.to_string reply);
  Urts.destroy handle

let test_ecall_input_overflow () =
  (* Symmetric check on the input leg: inputs own [0, 1/2). *)
  let _, handle =
    fixture ~ecalls:[ (1, fun (_ : Tenv.t) _ -> Bytes.empty) ] ~ocalls:[] ()
  in
  expect_enclave_error ~substring:"exceeds the marshalling input region"
    (fun () ->
      Urts.ecall handle ~id:1
        ~data:(Bytes.make 140_000 'i')
        ~direction:Edge.In ());
  Urts.destroy handle

let suite =
  [
    Alcotest.test_case "versioned sealing (anti-rollback)" `Quick
      test_versioned_sealing_rollback;
    Alcotest.test_case "OCALL reply overflow refused" `Quick
      test_ocall_reply_overflow;
    Alcotest.test_case "OCALL reply larger than request" `Quick
      test_ocall_reply_larger_than_request_ok;
    Alcotest.test_case "ECALL output overflow refused" `Quick
      test_ecall_output_overflow;
    Alcotest.test_case "ECALL input overflow refused" `Quick
      test_ecall_input_overflow;
    Alcotest.test_case "local attestation" `Quick test_local_attestation;
    Alcotest.test_case "switchless ocall" `Quick test_switchless_ocall;
    Alcotest.test_case "interrupt-frequency guard" `Quick test_interrupt_guard;
    Alcotest.test_case "interrupt guard is P-only" `Quick
      test_interrupt_guard_p_only;
    Alcotest.test_case "ecall roundtrip" `Quick test_ecall_roundtrip;
    Alcotest.test_case "ocall roundtrip" `Quick test_ocall_roundtrip;
    Alcotest.test_case "heap + memory" `Quick test_heap_and_memory;
    Alcotest.test_case "sealing" `Quick test_sealing;
    Alcotest.test_case "sealing bound to MRENCLAVE" `Quick
      test_sealing_bound_to_mrenclave;
    Alcotest.test_case "exceptions two-phase (GU)" `Quick test_exceptions_two_phase;
    Alcotest.test_case "exceptions in-enclave (P)" `Quick test_exceptions_in_enclave;
    Alcotest.test_case "GC page permissions" `Quick test_gc_page_permissions;
    Alcotest.test_case "ms window (user_check)" `Quick test_ms_window_user_check;
    Alcotest.test_case "report/quote API" `Quick test_report_quote_api;
    Alcotest.test_case "TCS exhaustion" `Quick test_no_free_tcs;
    Alcotest.test_case "ms split page-aligned" `Quick test_ms_split_page_aligned;
    Alcotest.test_case "ms_bytes validated" `Quick test_ms_bytes_validated;
    Alcotest.test_case "nested ECALL in OCALL" `Quick test_nested_ecall_in_ocall;
    Alcotest.test_case "nested ECALL exhaustion typed" `Quick
      test_nested_ecall_exhaustion_is_typed;
    Alcotest.test_case "code identity in measurement" `Quick
      test_code_identity_changes_measurement;
  ]
