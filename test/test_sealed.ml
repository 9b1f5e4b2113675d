(* One sealed-blob format.  Every one-shot blob the system writes — the
   TPM-sealed K_root, an evicted EPC page, enclave-sealed data in the
   HyperEnclave SDK and the SGX model, a session ticket, a migration
   package — is nonce ‖ ciphertext ‖ tag with no AAD inside, and every
   opener derives the AAD itself.  So each blob is exactly its plaintext
   plus [Authenc.overhead] bytes, and a damaged or truncated blob meets
   its opener's own typed refusal, never a decoder's exception. *)

open Hyperenclave
module Authenc = Crypto.Authenc

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* A tiny-EPC platform (512 EPC frames) whose enclave evicts pages:
   ECALL 1 writes a 700-page working set, 2 reads the page at the VA
   it is given, 3 seals and 4 unseals through [Tenv]. *)
let swapping_enclave () =
  let p =
    Platform.create ~seed:1234L ~phys_mb:134 ~os_mb:128 ~monitor_mb:4 ()
  in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.elrange_pages = 2048 }
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              let base = tenv.Tenv.malloc (700 * 4096) in
              for i = 0 to 699 do
                tenv.Tenv.write ~va:(base + (i * 4096)) (Bytes.of_string "x")
              done;
              Bytes.empty );
          ( 2,
            fun (tenv : Tenv.t) va ->
              tenv.Tenv.read ~va:(int_of_string (Bytes.to_string va)) ~len:1 );
          (3, fun (tenv : Tenv.t) data -> tenv.Tenv.seal data);
          (4, fun (tenv : Tenv.t) blob -> tenv.Tenv.unseal blob);
        ]
      ~ocalls:[]
  in
  ignore (Urts.ecall handle ~id:1 ~direction:Edge.In ());
  (p, handle)

(* The first evicted page's swap slot on the untrusted disk. *)
let swap_slot (p : Platform.t) handle =
  let id = (Urts.enclave handle).Enclave.id in
  let base = 0x1_0000_0000 / 4096 in
  let rec find vpn =
    if vpn > base + 2048 then Alcotest.fail "no swapped blob on disk"
    else
      let key = Printf.sprintf "heswap:%d:%x" id vpn in
      match Kernel.disk_load p.Platform.kernel ~key with
      | Some blob -> (key, vpn, blob)
      | None -> find (vpn + 1)
  in
  find base

(* A plane's ticket and a fleet's migration packages come from the serve
   and cluster suites' fixtures (tenant "acme"). *)
let ticket () =
  let _, plane, _, client = Test_serve.build ~seed:7100L () in
  Test_serve.establish plane client;
  match Serve.issue_ticket plane ~session:(Serve.Client.session_id client) with
  | Ok ticket -> (plane, ticket)
  | Error r -> Alcotest.failf "issue_ticket rejected: %a" Serve.pp_reject r

let package cl ~src ~dst =
  Test_cluster.seal_ok cl (Test_cluster.offer_ok cl ~src ~dst)

(* A package's sealed bytes travel as three fields, nonce ‖ ciphertext ‖
   tag: together they are one blob. *)
let package_wire p =
  Bytes.concat Bytes.empty Cluster.Migrate.[ p.p_iv; p.p_blob; p.p_tag ]

(* Damaged wire bytes cut back into the three fields the way a receiver
   would: the nonce first, the tag last, the ciphertext between (a wire
   too short for both leaves them short and the ciphertext empty). *)
let with_wire p wire =
  let n = Bytes.length wire in
  let iv = min 12 n in
  let tag = min 32 (n - iv) in
  {
    p with
    Cluster.Migrate.p_iv = Bytes.sub wire 0 iv;
    p_blob = Bytes.sub wire iv (n - iv - tag);
    p_tag = Bytes.sub wire (n - tag) tag;
  }

let test_blob_sizes () =
  let size what ~plaintext blob =
    Alcotest.(check int)
      (Printf.sprintf "%s: %d-byte plaintext + overhead" what plaintext)
      (plaintext + Authenc.overhead) (Bytes.length blob)
  in
  let p = Platform.create ~seed:5L () in
  (match Kernel.disk_load p.Platform.kernel ~key:"hyperenclave/k_root.sealed" with
  | Some blob ->
      Alcotest.(check int) "sealed K_root on the kernel disk" 76 (Bytes.length blob);
      size "sealed K_root" ~plaintext:32 blob
  | None -> Alcotest.fail "no sealed K_root on the kernel disk");
  let p, handle = swapping_enclave () in
  let _, _, swap_blob = swap_slot p handle in
  size "EPC swap blob" ~plaintext:Hw.Addr.page_size swap_blob;
  let data = Bytes.of_string "enclave state" in
  size "Tenv.seal" ~plaintext:(Bytes.length data)
    (Urts.ecall handle ~id:3 ~data ~direction:Edge.In_out ());
  Urts.destroy handle;
  let _, _, enclave =
    Test_sgx.fixture ~ecalls:[ (1, fun _ _ -> Bytes.empty) ] ~ocalls:[] ()
  in
  size "Sgx_model.seal" ~plaintext:(Bytes.length data)
    (Sgx.Sgx_model.seal enclave data);
  (* A ticket's payload: name length, name, session key, expiry. *)
  let plane, ticket = ticket () in
  size "session ticket" ~plaintext:(8 + 4 + 32 + 8) ticket;
  Serve.destroy plane;
  let cl, src = Test_cluster.build ~nodes:2 () in
  let dst = Test_cluster.other cl src in
  let export =
    match Serve.export_tenant (Cluster.plane cl src) ~tenant:"acme" with
    | Ok blob -> blob
    | Error r -> Alcotest.failf "export: %a" Serve.pp_reject r
  in
  size "migration package" ~plaintext:(Bytes.length export)
    (package_wire (package cl ~src ~dst));
  Cluster.destroy cl

(* Every blob damaged the same ways: a flipped first, middle or last
   byte, or cut short of, at and just past the bare nonce and tag. *)
let damages =
  let flip at blob =
    let b = Bytes.copy blob in
    let i = at (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    b
  in
  [
    ("first byte flipped", flip (fun _ -> 0));
    ("middle byte flipped", flip (fun n -> n / 2));
    ("last byte flipped", flip (fun n -> n - 1));
    ("cut to 0 bytes", fun _ -> Bytes.empty);
    ("cut to 43 bytes", fun b -> Bytes.sub b 0 43);
    ("cut to 44 bytes", fun b -> Bytes.sub b 0 44);
  ]

type outcome = Opened | Refused | Other of string

(* [attempt damage] opens the site's blob after [damage]; each damaged
   blob must meet the site's typed refusal, then the intact blob must
   still open. *)
let refuses_damage site attempt =
  List.iter
    (fun (what, damage) ->
      match attempt damage with
      | Refused -> ()
      | Opened -> Alcotest.failf "%s: %s blob opened" site what
      | Other e -> Alcotest.failf "%s: %s blob raised %s" site what e)
    damages;
  match attempt Fun.id with
  | Opened -> ()
  | Refused | Other _ -> Alcotest.failf "%s: the intact blob did not open" site

let test_damaged_blobs () =
  let other e = Other (Printexc.to_string e) in
  (* TPM: one Unseal_failed, whatever the damage. *)
  let tpm =
    Tpm.manufacture ~clock:(Cycles.create ()) ~cost:Cost_model.default
      ~rng:(Rng.create ~seed:3L)
  in
  Tpm.pcr_extend tpm ~index:0 (Bytes.of_string "bios");
  let blob = Tpm.seal tpm ~pcr_selection:[ 0 ] (Bytes.of_string "K_root") in
  refuses_damage "Tpm.unseal" (fun damage ->
      match Tpm.unseal tpm ~pcr_selection:[ 0 ] (damage blob) with
      | _ -> Opened
      | exception Tpm.Unseal_failed _ -> Refused
      | exception e -> other e);
  (* EPC swap-in: the damaged blob sits in the page's swap slot and the
     enclave touches the page. *)
  let p, handle = swapping_enclave () in
  let key, vpn, blob = swap_slot p handle in
  let va = Bytes.of_string (string_of_int (vpn * 4096)) in
  refuses_damage "EPC swap-in" (fun damage ->
      Kernel.disk_store p.Platform.kernel ~key (damage blob);
      match Urts.ecall handle ~id:2 ~data:va ~direction:Edge.In_out () with
      | _ -> Opened
      | exception Monitor.Security_violation m when contains m "swap-in" ->
          Refused
      | exception e -> other e);
  (* Tenv.unseal, inside the enclave that sealed. *)
  let blob =
    Urts.ecall handle ~id:3 ~data:(Bytes.of_string "enclave state")
      ~direction:Edge.In_out ()
  in
  refuses_damage "Tenv.unseal" (fun damage ->
      match Urts.ecall handle ~id:4 ~data:(damage blob) ~direction:Edge.In_out () with
      | _ -> Opened
      | exception Authenc.Authentication_failure -> Refused
      | exception e -> other e);
  Urts.destroy handle;
  (* Serve.resume: each attempt carries a fresh resumption nonce. *)
  let plane, ticket = ticket () in
  let attempts = ref 0 in
  refuses_damage "Serve.resume" (fun damage ->
      incr attempts;
      match
        Serve.resume plane
          {
            Serve.r_ticket = damage ticket;
            r_nonce = Bytes.make 16 (Char.chr !attempts);
          }
      with
      | Ok _ -> Opened
      | Error (Serve.Bad_ticket _) -> Refused
      | Error r -> Other (Serve.reject_name r)
      | exception e -> other e);
  Serve.destroy plane;
  (* Cluster.Migrate.install: a fresh offer for each install, since a
     failed install burns its offer. *)
  let cl, src = Test_cluster.build ~nodes:2 () in
  let dst = Test_cluster.other cl src in
  refuses_damage "Cluster.Migrate.install" (fun damage ->
      let pkg = package cl ~src ~dst in
      match
        Cluster.Migrate.install cl (with_wire pkg (damage (package_wire pkg)))
      with
      | Ok _ -> Opened
      | Error Cluster.Transport_auth -> Refused
      | Error e -> Other (Format.asprintf "%a" Cluster.pp_error e)
      | exception e -> other e);
  Cluster.destroy cl

let suite =
  [
    Alcotest.test_case "every blob is its plaintext + overhead" `Quick
      test_blob_sizes;
    Alcotest.test_case "openers refuse damaged blobs (typed)" `Quick
      test_damaged_blobs;
  ]
