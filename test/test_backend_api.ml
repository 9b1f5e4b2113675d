(* The config-record constructor, its per-kind field validation, and
   the trichotomy audit — no bare exception may cross the backend
   boundary for malformed inputs on any kind. *)

open Hyperenclave

let handlers =
  [
    (1, fun _env input -> input);
    (7, fun (env : Backend.env) input ->
        env.Backend.compute 500;
        Bytes.of_string (string_of_int (Bytes.length input)));
  ]

let all_kinds =
  Backend.Native :: Backend.Sgx
  :: List.map (fun m -> Backend.Hyperenclave m) Sgx_types.all_modes

let make p kind =
  Backend.create p { (Backend.config kind) with Backend.handlers }

let test_create_all_kinds () =
  let p = Platform.create ~seed:7100L () in
  List.iter
    (fun kind ->
      let b = make p kind in
      let reply =
        b.Backend.call ~id:1 ~data:(Bytes.of_string "ping")
          ~direction:Edge.In_out ()
      in
      Alcotest.(check string)
        (Backend.kind_name kind ^ " serves")
        "ping" (Bytes.to_string reply);
      (match (kind, b.Backend.identity) with
      | Backend.Native, Some _ -> Alcotest.fail "native must have no identity"
      | Backend.Native, None -> ()
      | _, None -> Alcotest.failf "%s must expose its MRENCLAVE" (Backend.kind_name kind)
      | _, Some id -> Alcotest.(check int) "identity is a digest" 32 (Bytes.length id));
      b.Backend.destroy ())
    all_kinds

let test_aliases_match_create () =
  (* The baseline constructors build what [create] builds from the
     platform's clock, cost model and RNG: same reply, same identity. *)
  let p = Platform.create ~seed:7101L () in
  let data = Bytes.of_string "alias" in
  let reply (b : Backend.t) =
    Bytes.to_string (b.Backend.call ~id:1 ~data ~direction:Edge.In_out ())
  in
  let via_create = make p Backend.Native in
  let via_alias =
    Backend.native ~clock:p.Platform.clock ~cost:p.Platform.cost
      ~rng:p.Platform.rng ~handlers ~ocalls:[]
  in
  Alcotest.(check string) "native replies match" (reply via_create)
    (reply via_alias);
  via_create.Backend.destroy ();
  via_alias.Backend.destroy ();
  let sc = make p Backend.Sgx in
  let sa =
    Backend.sgx ~clock:p.Platform.clock ~cost:p.Platform.cost
      ~rng:p.Platform.rng ~handlers ~ocalls:[] ()
  in
  Alcotest.(check string) "sgx replies match" (reply sc) (reply sa);
  Alcotest.(check bool) "sgx identities match" true
    (Option.get sc.Backend.identity = Option.get sa.Backend.identity);
  sc.Backend.destroy ();
  sa.Backend.destroy ()

let test_code_seed_changes_identity () =
  let p = Platform.create ~seed:7102L () in
  List.iter
    (fun kind ->
      let b1 =
        Backend.create p
          { (Backend.config kind) with Backend.handlers; code_seed = Some "app-v1" }
      in
      let b2 =
        Backend.create p
          { (Backend.config kind) with Backend.handlers; code_seed = Some "app-v2" }
      in
      Alcotest.(check bool)
        (Backend.kind_name kind ^ ": different code, different identity")
        false
        (Option.get b1.Backend.identity = Option.get b2.Backend.identity);
      b1.Backend.destroy ();
      b2.Backend.destroy ())
    [ Backend.Hyperenclave Sgx_types.GU; Backend.Sgx ]

let test_ms_bytes_override () =
  let p = Platform.create ~seed:7103L () in
  let b =
    Backend.create p
      { (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
        Backend.handlers;
        ms_bytes = Some (8 * 4096) }
  in
  let urts = Option.get b.Backend.urts in
  Alcotest.(check int) "marshalling buffer resized" (8 * 4096)
    (Urts.config urts).Urts.ms_bytes;
  b.Backend.destroy ()

let test_refused_build_leaks_nothing () =
  (* A build refused at any step — a malformed marshalling size, or a
     permanent fault at any crossing of the build — must leave no
     enclave, EPC frame or pinned page behind on the platform. *)
  let p = Platform.create ~seed:5L () in
  let m = p.Platform.monitor in
  let footprint () =
    ( Monitor.enclave_count m,
      Epc.free_count (Monitor.epc m),
      Process.pinned_count p.Platform.proc )
  in
  let start = footprint () in
  let check_clean what =
    Alcotest.(check (triple int int int)) (what ^ ": nothing left behind")
      start (footprint ())
  in
  let build ms_bytes =
    match
      Backend.create p
        { (Backend.config (Backend.Hyperenclave Sgx_types.GU)) with
          Backend.handlers;
          ms_bytes }
    with
    | b -> b.Backend.destroy ()
    | exception
        (Urts.Enclave_error _ | Fault.Injected _ | Monitor.Security_violation _)
      ->
        ()
  in
  build (Some 5000);
  check_clean "ms_bytes 5000";
  Fun.protect ~finally:Fault.clear (fun () ->
      List.iter
        (fun site ->
          for nth = 1 to 24 do
            Fault.install [ { Fault.site; nth; kind = Fault.Permanent } ];
            build None;
            Fault.clear ();
            check_clean (Printf.sprintf "%s@%d" site nth)
          done)
        [ "hypercall.dispatch"; "os.ioctl"; "epc.alloc" ])

let test_field_rejection () =
  let p = Platform.create ~seed:7105L () in
  let expect_invalid what config =
    try
      let b = Backend.create p config in
      b.Backend.destroy ();
      Alcotest.failf "%s accepted" what
    with Invalid_argument _ -> ()
  in
  expect_invalid "ms_bytes on native"
    { (Backend.config Backend.Native) with Backend.ms_bytes = Some 4096 };
  expect_invalid "ms_bytes on sgx"
    { (Backend.config Backend.Sgx) with Backend.ms_bytes = Some 4096 };
  expect_invalid "code_seed on native"
    { (Backend.config Backend.Native) with Backend.code_seed = Some "x" }

(* ------------------------------------------------------------------ *)
(* Trichotomy audit: malformed inputs stay typed on every kind         *)

let malformed_calls (b : Backend.t) =
  [
    ("unknown ecall id", fun () ->
        Backend.protected_call b ~id:999 ~data:(Bytes.of_string "x")
          ~direction:Edge.In_out ());
    ("negative ecall id", fun () ->
        Backend.protected_call b ~id:(-1) ~direction:Edge.In_out ());
    ("oversized payload", fun () ->
        (* Larger than any marshalling buffer in use. *)
        Backend.protected_call b ~id:1
          ~data:(Bytes.make (8 * 1024 * 1024) 'x')
          ~direction:Edge.In_out ());
  ]

let test_no_bare_exceptions () =
  let p = Platform.create ~seed:7106L () in
  List.iter
    (fun kind ->
      let b = make p kind in
      List.iter
        (fun (what, call) ->
          match call () with
          | Backend.Success _ ->
              (* Some baselines (native has no marshalling buffer) may
                 legitimately serve a huge payload; that is still inside
                 the trichotomy. *)
              ()
          | Backend.Typed_error _ | Backend.Violation _ -> ()
          | exception e ->
              Alcotest.failf "%s: %s escaped the trichotomy: %s"
                (Backend.kind_name kind) what (Printexc.to_string e))
        (malformed_calls b);
      b.Backend.destroy ())
    all_kinds

let suite =
  [
    Alcotest.test_case "create on all kinds" `Quick test_create_all_kinds;
    Alcotest.test_case "deprecated aliases match create" `Quick
      test_aliases_match_create;
    Alcotest.test_case "code_seed changes identity" `Quick
      test_code_seed_changes_identity;
    Alcotest.test_case "ms_bytes override" `Quick test_ms_bytes_override;
    Alcotest.test_case "refused build leaks nothing" `Quick
      test_refused_build_leaks_nothing;
    Alcotest.test_case "meaningless fields rejected" `Quick test_field_rejection;
    Alcotest.test_case "no bare exceptions cross the boundary" `Quick
      test_no_bare_exceptions;
  ]
