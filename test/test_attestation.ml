(* End-to-end remote attestation: quote generation on one platform,
   verification with golden values, and every failure mode. *)

open Hyperenclave

(* The challenge every quote here answers: the verifier's expected
   report_data. *)
let rd = Bytes.of_string "rd"

let build ?(seed = 4000L) ?(code_seed = "attested-app") () =
  let p = Platform.create ~seed () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed }
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  let quote = Urts.gen_quote handle ~report_data:rd in
  (p, handle, quote)

let golden_of (p : Platform.t) =
  Verifier.golden_of_boot_log
    ~ek_public:(Hyperenclave.Tpm.ek_public p.Platform.tpm)
    (Monitor.boot_log p.Platform.monitor)

let policy_for handle =
  {
    Verifier.expected_mrenclave = Some (Urts.mrenclave handle);
    expected_mrsigner = None;
    allow_debug = false;
  }

let expect_ok result =
  match result with
  | Verifier.Ok report -> report
  | Verifier.Error failure ->
      Alcotest.failf "expected Ok, got %a" Verifier.pp_failure failure

let expect_error expected result =
  match result with
  | Verifier.Ok _ -> Alcotest.fail "expected verification failure"
  | Verifier.Error failure ->
      Alcotest.(check string)
        "failure kind"
        (Format.asprintf "%a" Verifier.pp_failure expected)
        (Format.asprintf "%a" Verifier.pp_failure failure)

let test_verify_ok () =
  let p, handle, quote = build () in
  let report =
    expect_ok (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~report_data:rd quote)
  in
  Alcotest.(check string)
    "report data survives" "rd"
    (String.sub (Bytes.to_string report.Sgx_types.report_data) 0 2);
  Urts.destroy handle

let test_stale_nonce () =
  (* A quote made for one challenge, presented for another: every check
     but the last passes, and the signed report_data refuses it. *)
  let p, handle, quote = build () in
  expect_error Verifier.Report_data_mismatch
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle)
       ~report_data:(Bytes.of_string "another challenge") quote);
  Urts.destroy handle

let test_wrong_ek () =
  let p, handle, quote = build () in
  let clock = Cycles.create () in
  let other_tpm =
    Hyperenclave.Tpm.manufacture ~clock ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:9L)
  in
  let golden =
    Verifier.golden_of_measurements
      ~ek_public:(Hyperenclave.Tpm.ek_public other_tpm)
      (Verifier.boot_measurements (golden_of p))
  in
  expect_error Verifier.Bad_tpm_signature
    (Verifier.verify ~golden ~policy:(policy_for handle) ~report_data:rd quote);
  Urts.destroy handle

let test_tampered_boot_component () =
  (* Platform whose kernel image was modified by an evil maid: same TPM
     identity (same seed), different kernel measurement.  The verifier
     holding the good build's golden values must reject it by name. *)
  let good, good_handle, _ = build ~seed:4001L () in
  let golden = golden_of good in
  let evil = Platform.create ~seed:4001L ~tamper_boot:"kernel" () in
  let evil_handle =
    Urts.create ~kmod:evil.Platform.kmod ~proc:evil.Platform.proc
      ~rng:evil.Platform.rng ~signer:evil.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  let evil_quote =
    Urts.gen_quote evil_handle ~report_data:rd
  in
  (match
     Verifier.verify ~golden
       ~policy:
         {
           Verifier.expected_mrenclave = None;
           expected_mrsigner = None;
           allow_debug = false;
         }
       ~report_data:rd evil_quote
   with
  | Verifier.Ok _ -> Alcotest.fail "tampered platform verified"
  | Verifier.Error (Verifier.Boot_component_mismatch name) ->
      Alcotest.(check string) "the kernel is named" "kernel" name
  | Verifier.Error other ->
      Alcotest.failf "expected component mismatch, got %a" Verifier.pp_failure
        other);
  Urts.destroy good_handle;
  Urts.destroy evil_handle

let test_event_log_replay () =
  let p, handle, quote = build () in
  (* Doctoring the event log so it no longer replays to the quoted PCRs. *)
  let doctored =
    {
      quote with
      Monitor.events =
        List.map
          (fun (e : Monitor.boot_event) ->
            if e.Monitor.label = "kernel" then
              { e with Monitor.measurement = Bytes.make 32 'd' }
            else e)
          quote.Monitor.events;
    }
  in
  expect_error Verifier.Event_log_mismatch
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~report_data:rd
       doctored);
  Urts.destroy handle

let test_forged_ems () =
  let p, handle, quote = build () in
  let forged = { quote with Monitor.ems = Bytes.make 32 'f' } in
  expect_error Verifier.Bad_ems
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~report_data:rd
       forged);
  Urts.destroy handle

let test_policy_mrenclave () =
  let p, handle, quote = build () in
  let policy =
    {
      Verifier.expected_mrenclave = Some (Bytes.make 32 'x');
      expected_mrsigner = None;
      allow_debug = false;
    }
  in
  expect_error
    (Verifier.Policy_violation "MRENCLAVE mismatch")
    (Verifier.verify ~golden:(golden_of p) ~policy ~report_data:rd quote);
  Urts.destroy handle

let test_policy_mrsigner () =
  let p, handle, quote = build () in
  let enclave = Urts.enclave handle in
  let policy =
    {
      Verifier.expected_mrenclave = None;
      expected_mrsigner = Some enclave.Enclave.mrsigner;
      allow_debug = false;
    }
  in
  ignore (expect_ok (Verifier.verify ~golden:(golden_of p) ~policy ~report_data:rd quote));
  let bad =
    { policy with Verifier.expected_mrsigner = Some (Bytes.make 32 'y') }
  in
  expect_error
    (Verifier.Policy_violation "MRSIGNER mismatch")
    (Verifier.verify ~golden:(golden_of p) ~policy:bad ~report_data:rd quote);
  Urts.destroy handle

let test_debug_policy () =
  let p = Platform.create ~seed:4005L () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.debug = true }
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  let quote = Urts.gen_quote handle ~report_data:Bytes.empty in
  let policy =
    {
      Verifier.expected_mrenclave = None;
      expected_mrsigner = None;
      allow_debug = false;
    }
  in
  expect_error
    (Verifier.Policy_violation "debug enclave not allowed")
    (Verifier.verify ~golden:(golden_of p) ~policy ~report_data:Bytes.empty quote);
  ignore
    (expect_ok
       (Verifier.verify ~golden:(golden_of p)
          ~policy:{ policy with Verifier.allow_debug = true }
          ~report_data:Bytes.empty quote));
  Urts.destroy handle

let test_wrong_pcr_selection () =
  (* A TPM quote over the wrong PCR set carries a valid AIK signature,
     but replaying the event log cannot reproduce its digest: the
     verifier must name the event log, not the signature. *)
  let p, handle, quote = build ~seed:4020L () in
  let doctored =
    {
      quote with
      Monitor.tpm_quote =
        Hyperenclave.Tpm.quote p.Platform.tpm
          ~nonce:(Bytes.of_string "verifier-nonce-1") ~pcr_selection:[ 0 ];
    }
  in
  expect_error Verifier.Event_log_mismatch
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~report_data:rd
       doctored);
  Urts.destroy handle

let foreign_quote seed =
  (* A fully valid quote from a different platform (different monitor
     key pair) — donor material for splicing attacks. *)
  let p = Platform.create ~seed () in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:(Urts.default_config Sgx_types.GU)
      ~ecalls:[ (1, fun _ _ -> Bytes.empty) ]
      ~ocalls:[]
  in
  let quote = Urts.gen_quote handle ~report_data:rd in
  Urts.destroy handle;
  quote

let test_ems_from_foreign_hapk () =
  (* The ems is swapped for one signed by another platform's monitor
     key: the signature is internally valid, but not under THIS quote's
     hapk. *)
  let p, handle, quote = build ~seed:4021L () in
  let foreign = foreign_quote 4022L in
  expect_error Verifier.Bad_ems
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~report_data:rd
       { quote with Monitor.ems = foreign.Monitor.ems });
  Urts.destroy handle

let test_foreign_hapk_and_ems () =
  (* Swapping hapk AND ems together keeps the pair consistent, so the
     ems check alone would pass — the measured-boot binding is what
     must catch it: this hapk was never extended into the quoted PCRs. *)
  let p, handle, quote = build ~seed:4023L () in
  let foreign = foreign_quote 4024L in
  expect_error Verifier.Hapk_not_measured
    (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle) ~report_data:rd
       {
         quote with
         Monitor.hapk = foreign.Monitor.hapk;
         Monitor.ems = foreign.Monitor.ems;
       });
  Urts.destroy handle

(* A host with TPM access (the untrusted OS has it) forges a quote for
   a key pair of its own: it takes a TPM quote over the quoted
   selection, keeps the honest boot log plus one event naming its key
   at [pcr_index], and signs a report of its choosing (the expected
   MRENCLAVE, its own report_data) with that key.  At a quoted PCR it
   must extend the TPM for the log to replay. *)
let host_forged_quote (p : Platform.t) (quote : Monitor.quote) ~report_data
    ~pcr_index =
  let host_private, host_hapk =
    Crypto.Signature.generate (Rng.create ~seed:4031L)
  in
  let report =
    {
      quote.Monitor.report with
      Sgx_types.report_data = Sgx_types.pad_report_data report_data;
    }
  in
  let ems =
    Crypto.Signature.sign host_private (Sgx_types.ems_body report)
  in
  let measurement = Sha256.digest_bytes host_hapk in
  if List.mem pcr_index Monitor.quote_pcr_selection then
    Tpm.pcr_extend p.Platform.tpm ~index:pcr_index measurement;
  {
    Monitor.report;
    ems;
    hapk = host_hapk;
    tpm_quote =
      Tpm.quote p.Platform.tpm ~nonce:(Bytes.of_string "verifier-nonce-1")
        ~pcr_selection:Monitor.quote_pcr_selection;
    events =
      Monitor.boot_log p.Platform.monitor
      @ [ { Monitor.pcr_index; label = "hapk"; measurement } ];
  }

(* The forged quote is refused as it is and after a wire round trip. *)
let expect_forgery_refused expected ~pcr_index =
  let p, handle, quote = build () in
  let report_data = Bytes.of_string "host-chosen" in
  let forged = host_forged_quote p quote ~report_data ~pcr_index in
  let verify q =
    Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle)
      ~report_data q
  in
  expect_error expected (verify forged);
  (match Quote_wire.decode (Quote_wire.encode forged) with
  | Result.Error m -> Alcotest.failf "forged quote did not decode: %s" m
  | Result.Ok decoded -> expect_error expected (verify decoded));
  Urts.destroy handle

let test_hapk_outside_quoted_pcrs () =
  (* The event sits at PCR 16, which the quote does not cover: the TPM
     vouches for nothing it says. *)
  expect_forgery_refused Verifier.Event_log_mismatch ~pcr_index:16

let test_hapk_extended_again () =
  (* The host extends PCR 11 after launch: the log replays, but hapk is
     bound only through the one event the monitor made there. *)
  expect_forgery_refused Verifier.Hapk_not_measured ~pcr_index:Monitor.pcr_hapk

let test_hapk_at_boot_pcr () =
  (* The host extends a boot PCR: the log replays, and an event there is
     a boot component whatever its label, with no golden value. *)
  expect_forgery_refused (Verifier.Boot_component_mismatch "hapk") ~pcr_index:0

let test_wire_roundtrip () =
  let p, handle, quote = build ~seed:4010L () in
  let encoded = Quote_wire.encode quote in
  (match Quote_wire.decode encoded with
  | Result.Error m -> Alcotest.fail ("decode failed: " ^ m)
  | Result.Ok decoded ->
      (* The decoded quote must verify exactly like the original. *)
      ignore
        (expect_ok
           (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle)
              ~report_data:rd decoded)));
  (* Truncations at every prefix length must be rejected, not crash. *)
  for len = 0 to Bytes.length encoded - 1 do
    match Quote_wire.decode (Bytes.sub encoded 0 len) with
    | Result.Error _ -> ()
    | Result.Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
  done;
  (* Trailing garbage rejected. *)
  (match Quote_wire.decode (Bytes.cat encoded (Bytes.of_string "x")) with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "trailing bytes accepted");
  Urts.destroy handle

(* [q]'s wire form written independently of the codec, with the [k]-th
   integer on the wire (in wire order) spelled [spell k n].  Fields are
   thunks so the integers are numbered in the order they are written. *)
let reframe (q : Monitor.quote) ~spell =
  let k = ref (-1) in
  let record fields =
    let buf = Buffer.create 256 in
    List.iter
      (fun field ->
        let s = field () in
        Buffer.add_int32_be buf (Int32.of_int (String.length s));
        Buffer.add_string buf s)
      fields;
    Buffer.contents buf
  in
  let bytes b () = Bytes.to_string b and text s () = s in
  let int n =
    incr k;
    spell !k n
  in
  let num n () = int n in
  let r = q.Monitor.report and t = q.Monitor.tpm_quote in
  let report () =
    record
      [
        bytes r.Sgx_types.mrenclave;
        bytes r.mrsigner;
        text (if r.attributes.Sgx_types.debug then "1" else "0");
        text (Sgx_types.mode_name r.attributes.mode);
        num r.attributes.xfrm;
        num r.isv_prod_id;
        num r.isv_svn;
        bytes r.report_data;
        bytes r.key_id;
        bytes r.mac;
      ]
  in
  let selection () = String.concat "," (List.map int t.Tpm.pcr_selection) in
  let tpm () =
    record
      [
        bytes t.pcr_digest;
        selection;
        bytes t.nonce;
        bytes t.signature;
        bytes t.aik_public;
        bytes t.aik_certificate;
        bytes t.ek_public;
      ]
  in
  let event (e : Monitor.boot_event) () =
    record [ num e.pcr_index; text e.label; bytes e.measurement ]
  in
  Bytes.of_string
    (record
       ([ text "HEQ1"; report; bytes q.ems; bytes q.hapk; tpm;
          num (List.length q.events) ]
       @ List.map event q.events))

(* A quote has one wire form: every integer the wire carries (xfrm,
   ISV product id and SVN, each PCR-selection entry, the event count and
   each event's PCR index) decodes only as [string_of_int] writes it.
   Each other spelling of any one of them is refused, values that read
   the same included, so no re-framed copy of a genuine quote decodes
   and verifies. *)
let test_wire_one_spelling () =
  let p, handle, quote = build ~seed:4012L () in
  let canonical _ n = string_of_int n in
  let genuine = reframe quote ~spell:canonical in
  Alcotest.(check string)
    "the codec writes every integer as string_of_int does"
    (Bytes.to_string (Quote_wire.encode quote))
    (Bytes.to_string genuine);
  (match Quote_wire.decode genuine with
  | Result.Error m -> Alcotest.fail ("genuine wire refused: " ^ m)
  | Result.Ok decoded ->
      Alcotest.(check bool) "the genuine wire round-trips" true (decoded = quote);
      ignore
        (expect_ok
           (Verifier.verify ~golden:(golden_of p) ~policy:(policy_for handle)
              ~report_data:rd decoded)));
  let integers = ref 0 in
  ignore
    (reframe quote ~spell:(fun _ n ->
         incr integers;
         string_of_int n)
      : bytes);
  let rec binary n =
    if n < 2 then string_of_int n else binary (n / 2) ^ string_of_int (n mod 2)
  in
  let spellings =
    [
      (fun n -> "0" ^ string_of_int n);
      (fun n -> "+" ^ string_of_int n);
      Printf.sprintf "0x%x";
      (fun n -> "0b" ^ binary n);
      (fun n -> string_of_int n ^ "_");
      (fun _ -> "-0");
    ]
  in
  for k = 0 to !integers - 1 do
    List.iter
      (fun spell ->
        let odd = ref "" in
        let wire =
          reframe quote ~spell:(fun j n ->
              if j <> k then string_of_int n
              else begin
                odd := spell n;
                !odd
              end)
        in
        match Quote_wire.decode wire with
        | Result.Error _ -> ()
        | Result.Ok _ -> Alcotest.failf "integer %d spelled %S decoded" k !odd)
      spellings
  done;
  Alcotest.(check bool) "xfrm, ids, selection, count and indices" true
    (!integers >= 6);
  Urts.destroy handle

let test_wire_bitflips_never_verify () =
  let p, handle, quote = build ~seed:4011L () in
  let golden = golden_of p in
  let policy = policy_for handle in
  let encoded = Quote_wire.encode quote in
  let rng = Rng.create ~seed:4242L in
  let flips_verified = ref 0 in
  for _ = 1 to 200 do
    let copy = Bytes.copy encoded in
    let i = Rng.int rng (Bytes.length copy) in
    Bytes.set copy i (Char.chr (Char.code (Bytes.get copy i) lxor (1 lsl Rng.int rng 8)));
    match Quote_wire.decode copy with
    | Result.Error _ -> ()
    | Result.Ok doctored -> (
        match Verifier.verify ~golden ~policy ~report_data:rd doctored with
        | Verifier.Error _ -> ()
        | Verifier.Ok report ->
            (* A flip may land in fields the remote chain deliberately
               ignores (the local-attestation MAC, the advisory PCR-index
               list).  What must never happen is a verifying quote whose
               security-relevant content changed. *)
            let security_intact =
              Bytes.equal report.Sgx_types.mrenclave
                quote.Monitor.report.Sgx_types.mrenclave
              && Bytes.equal report.Sgx_types.mrsigner
                   quote.Monitor.report.Sgx_types.mrsigner
              && Bytes.equal report.Sgx_types.report_data
                   quote.Monitor.report.Sgx_types.report_data
              && Bytes.equal doctored.Monitor.hapk quote.Monitor.hapk
              && Bytes.equal doctored.Monitor.tpm_quote.Tpm.pcr_digest
                   quote.Monitor.tpm_quote.Tpm.pcr_digest
            in
            if not security_intact then incr flips_verified)
  done;
  Alcotest.(check int)
    "no flip alters security-relevant content and still verifies" 0
    !flips_verified;
  Urts.destroy handle

(* --- the appraisal memo ------------------------------------------------------ *)

(* A golden that has accepted [quote] — every test below appraises the
   honest platform first. *)
let appraised (p : Platform.t) handle quote =
  let golden = golden_of p in
  ignore
    (expect_ok
       (Verifier.verify ~golden ~policy:(policy_for handle) ~report_data:rd quote));
  golden

let pp_result fmt = function
  | Verifier.Ok _ -> Format.pp_print_string fmt "Ok"
  | Verifier.Error f -> Verifier.pp_failure fmt f

(* The bit-flip corpus of "wire bitflips never verify": every decodable
   doctored copy of the seed-4011 quote. *)
let flipped_quotes quote =
  let encoded = Quote_wire.encode quote in
  let rng = Rng.create ~seed:4242L in
  List.filter_map
    (fun _ ->
      let copy = Bytes.copy encoded in
      let i = Rng.int rng (Bytes.length copy) in
      Bytes.set copy i
        (Char.chr (Char.code (Bytes.get copy i) lxor (1 lsl Rng.int rng 8)));
      Result.to_option (Quote_wire.decode copy))
    (List.init 200 Fun.id)

let same_platform (a : Monitor.quote) (b : Monitor.quote) =
  a.Monitor.hapk = b.Monitor.hapk
  && a.Monitor.tpm_quote = b.Monitor.tpm_quote
  && a.Monitor.events = b.Monitor.events

(* The memo never changes a result: every flipped quote gets the same
   variant and report from a golden that has accepted the honest quote
   as from a fresh one, and again when it is presented a second time (a
   failure is not remembered).  The corpus reaches both paths: flips in
   the report or ems keep the remembered platform half, flips in it do
   not. *)
let test_memo_differential () =
  let p, handle, quote = build ~seed:4011L () in
  let policy = policy_for handle in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun doctored ->
      let fresh =
        Verifier.verify ~golden:(golden_of p) ~policy ~report_data:rd doctored
      in
      let golden = appraised p handle quote in
      List.iter
        (fun memo ->
          if fresh <> memo then
            Alcotest.failf "fresh golden: %a, appraised golden: %a" pp_result
              fresh pp_result memo)
        (List.init 2 (fun _ ->
             Verifier.verify ~golden ~policy ~report_data:rd doctored));
      incr (if same_platform doctored quote then hits else misses))
    (flipped_quotes quote);
  Alcotest.(check bool) "flips that keep the platform half" true (!hits > 0);
  Alcotest.(check bool) "flips inside the platform half" true (!misses > 0);
  Urts.destroy handle

(* The forged-hapk twins and the hapk/ems splice are refused as they are
   by a fresh golden when the honest platform was appraised first: each
   names another hapk, so none matches what the golden remembers. *)
let test_forgeries_after_appraisal () =
  List.iter
    (fun (pcr_index, expected) ->
      let p, handle, quote = build () in
      let golden = appraised p handle quote in
      let report_data = Bytes.of_string "host-chosen" in
      expect_error expected
        (Verifier.verify ~golden ~policy:(policy_for handle) ~report_data
           (host_forged_quote p quote ~report_data ~pcr_index));
      Urts.destroy handle)
    [
      (16, Verifier.Event_log_mismatch);
      (Monitor.pcr_hapk, Verifier.Hapk_not_measured);
      (0, Verifier.Boot_component_mismatch "hapk");
    ];
  let p, handle, quote = build ~seed:4023L () in
  let golden = appraised p handle quote in
  let foreign = foreign_quote 4024L in
  expect_error Verifier.Hapk_not_measured
    (Verifier.verify ~golden ~policy:(policy_for handle) ~report_data:rd
       {
         quote with
         Monitor.hapk = foreign.Monitor.hapk;
         Monitor.ems = foreign.Monitor.ems;
       });
  Urts.destroy handle

(* A golden built from an appraised golden's measurements under another
   EK inherits none of its accepted platforms. *)
let test_memo_not_inherited () =
  let p, handle, quote = build () in
  let other_tpm =
    Hyperenclave.Tpm.manufacture ~clock:(Cycles.create ()) ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:9L)
  in
  let golden =
    Verifier.golden_of_measurements
      ~ek_public:(Hyperenclave.Tpm.ek_public other_tpm)
      (Verifier.boot_measurements (appraised p handle quote))
  in
  expect_error Verifier.Bad_tpm_signature
    (Verifier.verify ~golden ~policy:(policy_for handle) ~report_data:rd quote);
  Urts.destroy handle

(* What a golden remembers, seen in allocation: a full appraisal runs
   the TPM chain and the log replay, which a remembered platform skips.
   A quote refused by a later check (here the ems) leaves its platform
   half unremembered.  A golden remembers one platform: a second one
   that verifies displaces the first, whose next quote is appraised in
   full and still verifies.  The second platform is the honest quote
   with its TPM quote taken again under another nonce, which the
   verifier does not read. *)
let test_memo_displaced () =
  let p, handle, quote = build ~seed:4030L () in
  let golden = golden_of p in
  let policy = policy_for handle in
  let words verdict q =
    let w0 = Gc.minor_words () in
    verdict (Verifier.verify ~golden ~policy ~report_data:rd q);
    Gc.minor_words () -. w0
  in
  let accepted result = ignore (expect_ok result) in
  let appraised_in_full what q =
    let appraisal = words accepted q in
    let remembered = words accepted q in
    Alcotest.(check bool) what true (appraisal > remembered +. 500.)
  in
  ignore
    (words (expect_error Verifier.Bad_ems)
       { quote with Monitor.ems = Bytes.make 32 'f' }
      : float);
  appraised_in_full "a refused quote is not remembered" quote;
  appraised_in_full "a second platform is appraised in full"
    {
      quote with
      Monitor.tpm_quote =
        Tpm.quote p.Platform.tpm ~nonce:(Bytes.make 16 '\001')
          ~pcr_selection:Monitor.quote_pcr_selection;
    };
  appraised_in_full "the displaced platform is appraised again" quote;
  Urts.destroy handle

let suite =
  [
    Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: one spelling per integer" `Quick
      test_wire_one_spelling;
    Alcotest.test_case "wire bitflips never verify" `Quick
      test_wire_bitflips_never_verify;
    Alcotest.test_case "verify ok" `Quick test_verify_ok;
    Alcotest.test_case "stale nonce" `Quick test_stale_nonce;
    Alcotest.test_case "wrong EK" `Quick test_wrong_ek;
    Alcotest.test_case "tampered boot component" `Quick test_tampered_boot_component;
    Alcotest.test_case "event log replay" `Quick test_event_log_replay;
    Alcotest.test_case "wrong PCR selection" `Quick test_wrong_pcr_selection;
    Alcotest.test_case "forged ems" `Quick test_forged_ems;
    Alcotest.test_case "ems from foreign hapk" `Quick test_ems_from_foreign_hapk;
    Alcotest.test_case "foreign hapk and ems spliced" `Quick
      test_foreign_hapk_and_ems;
    Alcotest.test_case "forged hapk outside the quoted PCRs" `Quick
      test_hapk_outside_quoted_pcrs;
    Alcotest.test_case "forged hapk extended again into PCR 11" `Quick
      test_hapk_extended_again;
    Alcotest.test_case "forged hapk at a boot PCR" `Quick test_hapk_at_boot_pcr;
    Alcotest.test_case "policy mrenclave" `Quick test_policy_mrenclave;
    Alcotest.test_case "policy mrsigner" `Quick test_policy_mrsigner;
    Alcotest.test_case "debug policy" `Quick test_debug_policy;
    Alcotest.test_case "an appraised golden answers the bit-flip corpus alike"
      `Quick test_memo_differential;
    Alcotest.test_case "forgeries after the honest platform was appraised"
      `Quick test_forgeries_after_appraisal;
    Alcotest.test_case "another EK inherits no appraisal" `Quick
      test_memo_not_inherited;
    Alcotest.test_case "a displaced platform is appraised again" `Quick
      test_memo_displaced;
  ]
