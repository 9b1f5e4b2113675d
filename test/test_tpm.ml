(* TPM semantics: PCR monotonicity, quote chains, sealing policy. *)

open Hyperenclave
module Tpm = Hyperenclave.Tpm
module Pcr = Hyperenclave.Pcr

let fixture () =
  let clock = Cycles.create () in
  Tpm.manufacture ~clock ~cost:Cost_model.default ~rng:(Rng.create ~seed:1L)

let test_pcr_extend_order () =
  let bank = Pcr.create () in
  let zero = Pcr.read bank ~index:0 in
  Alcotest.(check bool) "starts zero" true (Bytes.equal zero (Bytes.make 32 '\000'));
  Pcr.extend bank ~index:0 (Bytes.of_string "a");
  Pcr.extend bank ~index:0 (Bytes.of_string "b");
  let ab = Pcr.read bank ~index:0 in
  let bank2 = Pcr.create () in
  Pcr.extend bank2 ~index:0 (Bytes.of_string "b");
  Pcr.extend bank2 ~index:0 (Bytes.of_string "a");
  Alcotest.(check bool)
    "extend order matters" false
    (Pcr.equal_value ab (Pcr.read bank2 ~index:0));
  Pcr.reset bank;
  Alcotest.(check bool)
    "reset returns to zero" true
    (Bytes.equal (Pcr.read bank ~index:0) (Bytes.make 32 '\000'));
  Alcotest.check_raises "range check" (Invalid_argument "Pcr: index 24 out of range")
    (fun () -> ignore (Pcr.read bank ~index:24))

let test_selection_digest () =
  let bank = Pcr.create () in
  Pcr.extend bank ~index:0 (Bytes.of_string "x");
  Pcr.extend bank ~index:1 (Bytes.of_string "y");
  let d01 = Pcr.selection_digest bank ~indices:[ 0; 1 ] in
  let d10 = Pcr.selection_digest bank ~indices:[ 1; 0 ] in
  Alcotest.(check bool) "selection order matters" false (Pcr.equal_value d01 d10)

let test_quote_chain () =
  let tpm = fixture () in
  Tpm.pcr_extend tpm ~index:0 (Bytes.of_string "firmware");
  let nonce = Bytes.of_string "challenge-123" in
  let quote = Tpm.quote tpm ~nonce ~pcr_selection:[ 0; 1 ] in
  Alcotest.(check bool)
    "verifies against its EK" true
    (Tpm.verify_quote quote ~expected_ek:(Tpm.ek_public tpm));
  let other =
    Tpm.manufacture ~clock:(Cycles.create ()) ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:77L)
  in
  Alcotest.(check bool)
    "fails against another TPM's EK" false
    (Tpm.verify_quote quote ~expected_ek:(Tpm.ek_public other));
  let forged = { quote with Tpm.pcr_digest = Bytes.make 32 'f' } in
  Alcotest.(check bool)
    "forged digest fails" false
    (Tpm.verify_quote forged ~expected_ek:(Tpm.ek_public tpm))

let test_quote_reflects_boot_tampering () =
  let run image =
    let tpm = fixture () in
    Tpm.pcr_extend tpm ~index:0 (Bytes.of_string image);
    (Tpm.quote tpm ~nonce:(Bytes.of_string "n") ~pcr_selection:[ 0 ]).Tpm.pcr_digest
  in
  Alcotest.(check bool)
    "tampered image changes quote" false
    (Bytes.equal (run "good-bios") (run "evil-bios"))

let test_seal_policy () =
  let tpm = fixture () in
  Tpm.pcr_extend tpm ~index:3 (Bytes.of_string "kernel");
  let blob = Tpm.seal tpm ~pcr_selection:[ 3 ] (Bytes.of_string "K_root") in
  Alcotest.(check string)
    "unseal on same state" "K_root"
    (Bytes.to_string (Tpm.unseal tpm ~pcr_selection:[ 3 ] blob));
  (* Any further extend of a policy PCR kills unsealing - the flooding
     defence of Sec. 3.3. *)
  Tpm.pcr_extend tpm ~index:3 (Bytes.of_string "flood");
  (try
     ignore (Tpm.unseal tpm ~pcr_selection:[ 3 ] blob);
     Alcotest.fail "expected Unseal_failed after PCR change"
   with Tpm.Unseal_failed _ -> ())

(* The unsealer names the policy: a blob opens only under the selection
   it was sealed to, even while every PCR still holds its sealing-time
   value. *)
let test_seal_selection () =
  let tpm = fixture () in
  Tpm.pcr_extend tpm ~index:0 (Bytes.of_string "bios");
  Tpm.pcr_extend tpm ~index:3 (Bytes.of_string "kernel");
  let blob = Tpm.seal tpm ~pcr_selection:[ 0; 3 ] (Bytes.of_string "K_root") in
  List.iter
    (fun (what, pcr_selection) ->
      match Tpm.unseal tpm ~pcr_selection blob with
      | _ -> Alcotest.failf "%s: unsealed under another selection" what
      | exception Tpm.Unseal_failed _ -> ())
    [
      ("subset", [ 0 ]);
      ("other subset", [ 3 ]);
      ("reordering", [ 3; 0 ]);
      ("superset", [ 0; 3; 4 ]);
      ("empty selection", []);
    ];
  Alcotest.(check string)
    "the sealing selection still opens it" "K_root"
    (Bytes.to_string (Tpm.unseal tpm ~pcr_selection:[ 0; 3 ] blob))

let test_seal_wrong_chip () =
  let tpm = fixture () in
  let blob = Tpm.seal tpm ~pcr_selection:[ 0 ] (Bytes.of_string "secret") in
  let clock = Cycles.create () in
  let other =
    Tpm.manufacture ~clock ~cost:Cost_model.default ~rng:(Rng.create ~seed:2L)
  in
  try
    ignore (Tpm.unseal other ~pcr_selection:[ 0 ] blob);
    Alcotest.fail "expected Unseal_failed on another chip"
  with Tpm.Unseal_failed _ -> ()

let test_seal_survives_reboot () =
  let tpm = fixture () in
  (* Boot chain, seal, reboot with identical chain: unseal must work. *)
  Tpm.pcr_extend tpm ~index:0 (Bytes.of_string "bios");
  let blob = Tpm.seal tpm ~pcr_selection:[ 0 ] (Bytes.of_string "persistent") in
  Tpm.startup tpm;
  Tpm.pcr_extend tpm ~index:0 (Bytes.of_string "bios");
  Alcotest.(check string)
    "unseal after identical reboot" "persistent"
    (Bytes.to_string (Tpm.unseal tpm ~pcr_selection:[ 0 ] blob));
  (* Reboot with a modified chain: policy mismatch. *)
  Tpm.startup tpm;
  Tpm.pcr_extend tpm ~index:0 (Bytes.of_string "evil-bios");
  try
    ignore (Tpm.unseal tpm ~pcr_selection:[ 0 ] blob);
    Alcotest.fail "expected Unseal_failed after boot tampering"
  with Tpm.Unseal_failed _ -> ()

let test_random_and_cycles () =
  let clock = Cycles.create () in
  let tpm =
    Tpm.manufacture ~clock ~cost:Cost_model.default ~rng:(Rng.create ~seed:4L)
  in
  let before = Cycles.now clock in
  let r1 = Tpm.random tpm 32 in
  let r2 = Tpm.random tpm 32 in
  Alcotest.(check int) "requested size" 32 (Bytes.length r1);
  Alcotest.(check bool) "successive randoms differ" false (Bytes.equal r1 r2);
  Alcotest.(check bool)
    "TPM commands cost cycles" true
    (Cycles.now clock - before >= 2 * Cost_model.default.Cost_model.tpm_command)

let test_monotonic_counters () =
  let tpm = fixture () in
  Tpm.counter_create tpm ~name:"c";
  Alcotest.(check int) "starts at zero" 0 (Tpm.counter_read tpm ~name:"c");
  Alcotest.(check int) "increments" 1 (Tpm.counter_increment tpm ~name:"c");
  Alcotest.(check int) "again" 2 (Tpm.counter_increment tpm ~name:"c");
  Tpm.counter_create tpm ~name:"c" (* idempotent: no reset *);
  Alcotest.(check int) "create does not reset" 2 (Tpm.counter_read tpm ~name:"c");
  Tpm.startup tpm;
  Alcotest.(check int) "survives reboot" 2 (Tpm.counter_read tpm ~name:"c");
  Alcotest.check_raises "unknown counter" Not_found (fun () ->
      ignore (Tpm.counter_read tpm ~name:"missing"))

let suite =
  [
    Alcotest.test_case "monotonic counters" `Quick test_monotonic_counters;
    Alcotest.test_case "pcr extend order" `Quick test_pcr_extend_order;
    Alcotest.test_case "selection digest" `Quick test_selection_digest;
    Alcotest.test_case "quote chain" `Quick test_quote_chain;
    Alcotest.test_case "quote reflects tampering" `Quick
      test_quote_reflects_boot_tampering;
    Alcotest.test_case "seal policy" `Quick test_seal_policy;
    Alcotest.test_case "unseal names the sealing selection" `Quick
      test_seal_selection;
    Alcotest.test_case "seal wrong chip" `Quick test_seal_wrong_chip;
    Alcotest.test_case "seal across reboot" `Quick test_seal_survives_reboot;
    Alcotest.test_case "random + command cost" `Quick test_random_and_cycles;
  ]
