(* Remote attestation end to end (Sec. 3.3, Fig. 4): a relying party with
   golden measurements verifies a HyperEnclave quote before provisioning
   a secret, and rejects a platform whose boot chain was tampered with.

   Run with: dune exec examples/attested_channel.exe *)

open Hyperenclave

let code_seed = "attested-service-v3"

let build_platform ?tamper_boot ~seed () =
  let p = Platform.create ~seed ?tamper_boot () in
  let enclave =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed }
      ~ecalls:
        [
          (* The service proves itself by embedding the verifier's nonce
             in the report and later receives the provisioned secret. *)
          (1, fun (tenv : Tenv.t) secret -> tenv.Tenv.seal secret);
        ]
      ~ocalls:[]
  in
  (p, enclave)

let () =
  (* --- provisioning time: the deployer records golden values from a
     known-good build --- *)
  let reference, reference_enclave = build_platform ~seed:51L () in
  let golden =
    Verifier.golden_of_boot_log
      ~ek_public:(Tpm.ek_public reference.Platform.tpm)
      (Monitor.boot_log reference.Platform.monitor)
  in
  let policy =
    {
      Verifier.expected_mrenclave = Some (Urts.mrenclave reference_enclave);
      expected_mrsigner = None;
      allow_debug = false;
    }
  in
  Printf.printf "golden: %d boot measurements + MRENCLAVE %s...\n"
    (List.length (Verifier.boot_measurements golden))
    (String.sub (Sha256.to_hex (Urts.mrenclave reference_enclave)) 0 16);

  (* --- runtime: the production platform requests a secret.  The
     verifier's challenge goes in the report the monitor signs; the TPM
     half of the quote is the one the monitor took at boot. --- *)
  let nonce = Bytes.of_string "freshness-0001" in
  let quote = Urts.gen_quote reference_enclave ~report_data:nonce in
  (match Verifier.verify ~golden ~policy ~report_data:nonce quote with
  | Verifier.Ok report ->
      Printf.printf "verified: enclave %s... on a trusted boot chain\n"
        (String.sub (Sha256.to_hex report.Sgx_types.mrenclave) 0 16);
      (* Provision the database key into the verified enclave; it seals
         it for local storage. *)
      let sealed =
        Urts.ecall reference_enclave ~id:1
          ~data:(Bytes.of_string "prod-db-key-XYZ") ~direction:Edge.In_out ()
      in
      Printf.printf "secret provisioned and sealed (%d bytes)\n"
        (Bytes.length sealed)
  | Verifier.Error failure ->
      Format.printf "unexpected rejection: %a@." Verifier.pp_failure failure;
      exit 1);

  (* --- the attack: same hardware identity, but grub was modified --- *)
  let _evil_platform, evil_enclave =
    build_platform ~seed:51L ~tamper_boot:"grub" ()
  in
  let evil_quote = Urts.gen_quote evil_enclave ~report_data:nonce in
  (match Verifier.verify ~golden ~policy ~report_data:nonce evil_quote with
  | Verifier.Ok _ ->
      print_endline "BUG: tampered platform verified!";
      exit 1
  | Verifier.Error failure ->
      Format.printf "tampered platform rejected: %a@." Verifier.pp_failure
        failure);

  (* --- replay: the old quote presented to a new challenge is refused --- *)
  (match
     Verifier.verify ~golden ~policy
       ~report_data:(Bytes.of_string "freshness-0002") quote
   with
  | Verifier.Ok _ ->
      print_endline "BUG: replayed quote accepted!";
      exit 1
  | Verifier.Error failure ->
      Format.printf "replayed quote rejected: %a@." Verifier.pp_failure failure);

  Urts.destroy reference_enclave;
  Urts.destroy evil_enclave;
  print_endline "attested_channel done."
