(* Crypto primitives against published vectors, plus roundtrip and
   tamper-detection properties. *)

open Hyperenclave.Crypto

let hex = Sha256.to_hex

let of_hex s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let check_hex = Alcotest.(check string)

(* --- SHA-256 (FIPS 180-4 / NIST CAVP vectors) -------------------------------- *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Sha256.digest_string ""));
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Sha256.digest_string "abc"));
  check_hex "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex
       (Sha256.digest_string
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  check_hex "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Sha256.digest_bytes (Bytes.make 1_000_000 'a')))

let test_sha256_incremental () =
  let data = "The quick brown fox jumps over the lazy dog, repeatedly." in
  let oneshot = Sha256.digest_string data in
  let ctx = Sha256.init () in
  String.iter (fun c -> Sha256.update_string ctx (String.make 1 c)) data;
  Alcotest.(check string)
    "bytewise = oneshot" (hex oneshot)
    (hex (Sha256.finalize ctx));
  let ctx2 = Sha256.init () in
  Sha256.update_string ctx2 data;
  ignore (Sha256.finalize ctx2);
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Sha256.finalize: already finalized") (fun () ->
      ignore (Sha256.finalize ctx2))

let test_sha256_equal () =
  let a = Sha256.digest_string "x" and b = Sha256.digest_string "x" in
  Alcotest.(check bool) "equal digests" true (Sha256.equal a b);
  Alcotest.(check bool)
    "different digests" false
    (Sha256.equal a (Sha256.digest_string "y"));
  Alcotest.(check bool) "length mismatch" false (Sha256.equal a (Bytes.create 4))

(* Messages around the padding boundaries: the length field fits in the
   last block up to 55 bytes, and from 56 bytes it spills into an extra
   one.  The n-byte message is bytes 0, 1, ..., n-1; the digests were
   computed with Python's hashlib. *)
let padding_vectors =
  [
    (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
    (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
    (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
    (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
    (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
    (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
    (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
  ]

let test_sha256_padding () =
  (* One scratch context, rewound to the initial state for every
     message: [restore] must clear the previous message's buffered bytes
     and its finalized flag. *)
  let iv = Sha256.midstate (Sha256.init ()) in
  let scratch = Sha256.init () in
  let out = Bytes.make 40 '*' in
  List.iter
    (fun (n, expected) ->
      let msg = Bytes.init n Char.chr in
      check_hex (Printf.sprintf "%d-byte digest_bytes" n) expected
        (hex (Sha256.digest_bytes msg));
      Sha256.restore scratch ~from:iv;
      Sha256.update scratch msg;
      Sha256.finalize_into scratch out ~off:4;
      check_hex
        (Printf.sprintf "%d-byte restore+finalize_into" n)
        expected
        (hex (Bytes.sub out 4 32));
      Alcotest.(check string)
        "finalize_into stays in its slice" "********"
        (Bytes.sub_string out 0 4 ^ Bytes.sub_string out 36 4))
    padding_vectors;
  Alcotest.check_raises "midstate needs a block boundary"
    (Invalid_argument "Sha256.midstate: context is not on a block boundary")
    (fun () ->
      let ctx = Sha256.init () in
      Sha256.update_string ctx "x";
      ignore (Sha256.midstate ctx))

(* --- HMAC (RFC 4231) ------------------------------------------------------------ *)

let test_hmac_vectors () =
  check_hex "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.hmac_string ~key:(Bytes.make 20 '\x0b') "Hi There"));
  check_hex "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex
       (Hmac.hmac_string ~key:(Bytes.of_string "Jefe")
          "what do ya want for nothing?"));
  (* case 3: 20 x 0xaa key, 50 x 0xdd data *)
  check_hex "rfc4231 case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Hmac.hmac ~key:(Bytes.make 20 '\xaa') (Bytes.make 50 '\xdd')));
  (* Cases 6 and 7: a 131-byte key, longer than a block, is hashed down
     to 32 bytes before padding. *)
  let long_key = Bytes.make 131 '\xaa' in
  check_hex "rfc4231 case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Hmac.hmac_string ~key:long_key
          "Test Using Larger Than Block-Size Key - Hash Key First"));
  check_hex "rfc4231 case 7"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (hex
       (Hmac.hmac_string ~key:long_key
          "This is a test using a larger than block-size key and a larger \
           than block-size data. The key needs to be hashed before being \
           used by the HMAC algorithm."))

let test_hmac_verify () =
  let key = Bytes.of_string "0123456789abcdef0123456789abcdef" in
  let msg = Bytes.of_string "attested message" in
  let tag = Hmac.hmac ~key msg in
  Alcotest.(check bool) "verify ok" true (Hmac.verify ~key msg ~tag);
  Alcotest.(check bool)
    "verify bad msg" false
    (Hmac.verify ~key (Bytes.of_string "attested message!") ~tag)

let test_hkdf () =
  (* RFC 5869 test case 1. *)
  let ikm = Bytes.make 22 '\x0b' in
  let salt = of_hex "000102030405060708090a0b0c" in
  let prk = Hmac.hkdf_extract ~salt ~ikm () in
  check_hex "prk" "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    (hex prk);
  (* info = 0xf0..f9, L=42 *)
  let info = Bytes.to_string (of_hex "f0f1f2f3f4f5f6f7f8f9") in
  let okm = Hmac.expand (Hmac.prepare ~key:prk) ~info ~len:42 in
  check_hex "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (hex okm);
  Alcotest.(check int) "derive is 32 bytes" 32 (Bytes.length (Hmac.derive ~key:ikm ~info:"x"));
  Alcotest.(check bool)
    "derive domain separation" false
    (Bytes.equal (Hmac.derive ~key:ikm ~info:"a") (Hmac.derive ~key:ikm ~info:"b"))

(* --- AES (FIPS 197) ---------------------------------------------------------------- *)

let test_aes_vector () =
  let key = Aes.expand_key (of_hex "000102030405060708090a0b0c0d0e0f") in
  let ct = Aes.encrypt_block key (of_hex "00112233445566778899aabbccddeeff") in
  check_hex "fips-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a" (hex ct);
  check_hex "decrypt inverts" "00112233445566778899aabbccddeeff"
    (hex (Aes.decrypt_block key ct))

let test_aes_ctr () =
  let key = Bytes.of_string "0123456789abcdef" in
  let nonce = Bytes.make 12 '\x01' in
  let plaintext = Bytes.of_string "counter mode works on odd lengths too!" in
  let ct = Aes.ctr_transform ~key ~nonce plaintext in
  Alcotest.(check bool) "ciphertext differs" false (Bytes.equal ct plaintext);
  Alcotest.(check string)
    "ctr roundtrip"
    (Bytes.to_string plaintext)
    (Bytes.to_string (Aes.ctr_transform ~key ~nonce ct))

let test_aes_xts () =
  let key = Bytes.of_string "fedcba9876543210" in
  let plaintext = Bytes.make 64 'p' in
  let ct1 = Aes.xts_encrypt ~key ~tweak:0x1000 plaintext in
  let ct2 = Aes.xts_encrypt ~key ~tweak:0x2000 plaintext in
  Alcotest.(check bool)
    "tweak (address) changes ciphertext" false (Bytes.equal ct1 ct2);
  Alcotest.(check bool)
    "blocks differ within buffer" false
    (Bytes.equal (Bytes.sub ct1 0 16) (Bytes.sub ct1 16 16));
  Alcotest.(check string)
    "xts roundtrip"
    (Bytes.to_string plaintext)
    (Bytes.to_string (Aes.xts_decrypt ~key ~tweak:0x1000 ct1));
  Alcotest.check_raises "length check" (Invalid_argument "Aes.xts: length % 16 <> 0")
    (fun () -> ignore (Aes.xts_encrypt ~key ~tweak:0 (Bytes.create 15)))

(* --- Signatures ---------------------------------------------------------------------- *)

let test_signature () =
  let rng = Hyperenclave.Rng.create ~seed:9L in
  let sk, pk = Signature.generate rng in
  let msg = Bytes.of_string "enclave measurement" in
  let signature = Signature.sign sk msg in
  Alcotest.(check bool) "verify ok" true (Signature.verify pk msg ~signature);
  Alcotest.(check bool)
    "other message fails" false
    (Signature.verify pk (Bytes.of_string "enclave measurement!") ~signature);
  let _, pk2 = Signature.generate rng in
  Alcotest.(check bool) "other key fails" false (Signature.verify pk2 msg ~signature);
  Alcotest.(check bool)
    "unregistered key fails" false
    (Signature.verify (Bytes.make 32 'z') msg ~signature);
  (* export/import keeps identity *)
  let sk' = Signature.import_private (Signature.export_private sk) in
  Alcotest.(check bool)
    "imported key signs identically" true
    (Signature.verify pk msg ~signature:(Signature.sign sk' msg))

(* --- Authenc ---------------------------------------------------------------------------- *)

let test_authenc () =
  let keys = Authenc.prepare (Hmac.derive ~key:(Bytes.of_string "root") ~info:"seal") in
  let nonce = Bytes.make 12 '\x42' in
  let aad = Bytes.of_string "policy" in
  let blob = Authenc.seal keys ~aad ~nonce (Bytes.of_string "secret data") in
  Alcotest.(check int) "blob is plaintext + overhead" (11 + 44) (Bytes.length blob);
  Alcotest.(check string) "nonce leads the blob" (Bytes.to_string nonce)
    (Bytes.sub_string blob 0 12);
  Alcotest.(check string)
    "roundtrip" "secret data"
    (Bytes.to_string (Authenc.unseal keys ~aad blob));
  let flip i =
    let b = Bytes.copy blob in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    b
  in
  List.iter
    (fun (what, keys, aad, blob) ->
      Alcotest.check_raises what Authenc.Authentication_failure (fun () ->
          ignore (Authenc.unseal keys ~aad blob)))
    [
      ("tampered nonce", keys, aad, flip 0);
      ("tampered ciphertext", keys, aad, flip 12);
      ("tampered tag", keys, aad, flip (Bytes.length blob - 1));
      ("other aad", keys, Bytes.of_string "POLICY", blob);
      ( "wrong key",
        Authenc.prepare (Hmac.derive ~key:(Bytes.of_string "other") ~info:"seal"),
        aad,
        blob );
      ("shorter than overhead", keys, aad, Bytes.sub blob 0 43);
      ("empty", keys, aad, Bytes.empty);
    ];
  let empty = Authenc.seal keys ~aad ~nonce Bytes.empty in
  Alcotest.(check int) "empty plaintext is overhead alone" Authenc.overhead
    (Bytes.length empty);
  Alcotest.(check string) "empty roundtrip" ""
    (Bytes.to_string (Authenc.unseal keys ~aad empty))

(* --- zero-copy path ---------------------------------------------------------------------- *)

let test_ctr_into () =
  let key = Aes.expand_key (Bytes.of_string "0123456789abcdef") in
  let nonce = Bytes.make 12 '\x07' in
  let data = Bytes.of_string "slices must match the one-shot keystream" in
  (* Known answer: the keystream XOR this implementation has always
     produced for this key, nonce and 40-byte message (two full blocks
     and a partial one). *)
  let expected =
    "5815edf3e3a043f90f02d3e3ec448cb37bdcfae6bb5e07c481acc5063da15a719efe7a610716fb64"
  in
  (* Same offset in a larger buffer. *)
  let src = Bytes.cat (Bytes.of_string "pad:") data in
  let dst = Bytes.make (Bytes.length src) '\x00' in
  Aes.ctr_into ~key ~nonce ~src ~src_off:4 ~dst ~dst_off:4
    ~len:(Bytes.length data);
  check_hex "slice = known answer" expected
    (hex (Bytes.sub dst 4 (Bytes.length data)));
  (* Aliased src/dst: a true in-place transform. *)
  let buf = Bytes.copy data in
  Aes.ctr_into ~key ~nonce ~src:buf ~src_off:0 ~dst:buf ~dst_off:0
    ~len:(Bytes.length buf);
  check_hex "in-place = known answer" expected (hex buf);
  Aes.ctr_into ~key ~nonce ~src:buf ~src_off:0 ~dst:buf ~dst_off:0
    ~len:(Bytes.length buf);
  Alcotest.(check string)
    "in-place inverts" (Bytes.to_string data) (Bytes.to_string buf);
  Alcotest.check_raises "bounds checked"
    (Invalid_argument "Aes.ctr_into: source slice out of bounds") (fun () ->
      Aes.ctr_into ~key ~nonce ~src:buf ~src_off:1 ~dst:buf ~dst_off:0
        ~len:(Bytes.length buf))

(* Minor words per call of [f], over 1,000 calls after one warm call. *)
let words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  (Gc.minor_words () -. w0) /. 1000.

(* Key preparation allocates what the keys keep: the AES schedule with
   its CTR scratch, the MAC key's two pad midstates and the scratch
   context the extract ran in, and the keys' record with its two small
   buffers, about 260 words.  A second context for the MAC key, a tag
   per expand block and byte-wise AES round keys read 652. *)
let test_prepare_allocation () =
  let key = Bytes.make 32 'k' in
  let words =
    words_per_call (fun () -> ignore (Authenc.prepare key : Authenc.keys))
  in
  if words > 320. then
    Alcotest.failf "Authenc.prepare allocated %.0f minor words per call (> 320)"
      words

(* In-place HKDF-Expand writes exactly its slice, whole blocks and a
   partial last one alike, with the bytes [expand] returns. *)
let test_expand_into () =
  let prk = Hmac.extract ~ikm:(Bytes.of_string "input keying material") in
  List.iter
    (fun len ->
      let buf = Bytes.make (len + 10) 'z' in
      Hmac.expand_into prk ~info:"slice" buf ~off:5 ~len;
      Alcotest.(check string)
        (Printf.sprintf "%d bytes in place" len)
        (Bytes.to_string (Hmac.expand prk ~info:"slice" ~len))
        (Bytes.sub_string buf 5 len);
      Alcotest.(check string)
        (Printf.sprintf "%d bytes: the rest untouched" len)
        "zzzzzzzzzz"
        (Bytes.sub_string buf 0 5 ^ Bytes.sub_string buf (5 + len) 5))
    [ 0; 16; 32; 42; 64; 100 ]

(* A key runs CTR over its own scratch counter block and state, so a
   104-byte transform allocates nothing.  Under prepared keys a seal
   writes its tag into the frame and an open recomputes the tag in the
   keys' scratch, so neither allocates either. *)
let test_ctr_allocation () =
  let key = Aes.expand_key (Bytes.of_string "0123456789abcdef") in
  let nonce = Bytes.make 12 '\x07' in
  let buf = Bytes.make (104 + 32) 'a' in
  let ctr () =
    Aes.ctr_into ~key ~nonce ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:104
  in
  let words = words_per_call ctr in
  if words >= 1. then
    Alcotest.failf "104-byte ctr_into allocated %.1f minor words per call" words;
  let keys = Authenc.prepare (Bytes.make 32 'k') in
  let aad = Bytes.of_string "serve-req:aad" in
  let seal () =
    Authenc.seal_into keys ~aad ~nonce ~src:buf ~src_off:0 ~dst:buf ~dst_off:0
      ~len:104
  in
  let words = words_per_call seal in
  if words >= 1. then
    Alcotest.failf "seal_into allocated %.1f minor words per call (>= 1)" words;
  (* Each call seals the plaintext the previous one opened. *)
  let tag = Bytes.sub buf 104 32 in
  let roundtrip () =
    Authenc.unseal_in_place keys ~aad ~nonce ~tag buf ~off:0 ~len:104;
    seal ()
  in
  let words = words_per_call roundtrip -. words in
  if words >= 1. then
    Alcotest.failf "unseal_in_place allocated %.1f minor words per call (>= 1)"
      words

let test_update_sub () =
  let data = Bytes.of_string "incremental hashing over sub-slices" in
  let ctx = Sha256.init () in
  Sha256.update_sub ctx data ~off:0 ~len:11;
  Sha256.update_sub ctx data ~off:11 ~len:(Bytes.length data - 11);
  Alcotest.(check string)
    "update_sub = digest"
    (hex (Sha256.digest_bytes data))
    (hex (Sha256.finalize ctx));
  let ctx = Sha256.init () in
  Alcotest.check_raises "slice bounds"
    (Invalid_argument "Sha256.update_sub: slice out of bounds") (fun () ->
      Sha256.update_sub ctx data ~off:1 ~len:(Bytes.length data))

let test_prepared_hmac () =
  (* One prepared key over several messages — empty, sub-block, exactly
     a block, multi-block, fed in pieces — must give the one-shot tags:
     nothing of one MAC may leak into the next through the scratch. *)
  let key = Bytes.of_string "prepared-hmac-key" in
  let p = Hmac.prepare ~key in
  List.iter
    (fun n ->
      let msg = Bytes.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
      let ctx = Hmac.start p in
      Sha256.update_sub ctx msg ~off:0 ~len:(n / 3);
      Sha256.update_sub ctx msg ~off:(n / 3) ~len:(n - (n / 3));
      check_hex
        (Printf.sprintf "%d-byte message" n)
        (hex (Hmac.hmac ~key msg))
        (hex (Hmac.finish p)))
    [ 0; 5; 64; 200; 1; 55; 56 ];
  (* An abandoned MAC is discarded by the next [start]. *)
  Sha256.update_string (Hmac.start p) "abandoned";
  Sha256.update_string (Hmac.start p) "kept";
  check_hex "start discards a MAC in progress"
    (hex (Hmac.hmac_string ~key "kept"))
    (hex (Hmac.finish p))

(* Known-answer vectors for the one-shot blob, nonce ‖ ciphertext ‖ tag,
   for a fixed key, nonce and AAD — an empty plaintext and a 37-byte one
   that is not a block multiple.  The AAD is not in the blob, but the tag
   covers it: the ciphertext and tag here are the cipher's and the MAC's
   own known answers. *)
let test_authenc_kat () =
  let keys = Authenc.prepare (Bytes.init 32 Char.chr) in
  let nonce = Bytes.init 12 (fun i -> Char.chr (0xc0 + i)) in
  let aad = Bytes.of_string "authenc-kat" in
  let kat plaintext expected =
    let plaintext = Bytes.of_string plaintext in
    check_hex
      (Printf.sprintf "%d-byte seal" (Bytes.length plaintext))
      expected
      (hex (Authenc.seal keys ~aad ~nonce plaintext));
    Alcotest.(check string)
      "unseal inverts" (Bytes.to_string plaintext)
      (Bytes.to_string (Authenc.unseal keys ~aad (of_hex expected)))
  in
  kat ""
    "c0c1c2c3c4c5c6c7c8c9cacba688aa97d102d65dcd692a292d839c59f67e4f96d29a5cdee0f2ec67710cbf75";
  kat "the quick brown fox jumps over a dog!"
    "c0c1c2c3c4c5c6c7c8c9cacbdb509f5a74fae33735d2e44273cf4d0c014b85874fdc2be267a324e93326b0b1875c3bd9f81b7bcbf83b1e2907c597bcdade11c11e5c6d73b4e6218f239845f0727fc05daa"

let test_authenc_zero_copy () =
  let key = Hmac.derive ~key:(Bytes.of_string "root") ~info:"zc" in
  let keys = Authenc.prepare key in
  let nonce = Bytes.make 12 '\x21' in
  let aad = Bytes.of_string "zc-policy" in
  let plaintext = Bytes.of_string "zero-copy sealed payload" in
  let len = Bytes.length plaintext in
  (* seal_into over a slice of a larger buffer writes the frame,
     ciphertext then tag, and leaves the bytes around it alone. *)
  let buf = Bytes.make (len + 32 + 8) '*' in
  Authenc.seal_into keys ~aad ~nonce ~src:plaintext ~src_off:0 ~dst:buf
    ~dst_off:4 ~len;
  Alcotest.(check string)
    "frame borders untouched" "********"
    (Bytes.sub_string buf 0 4 ^ Bytes.sub_string buf (len + 36) 4);
  Alcotest.check_raises "no room for the tag"
    (Invalid_argument "Authenc.seal_into: no room for the frame") (fun () ->
      Authenc.seal_into keys ~aad ~nonce ~src:plaintext ~src_off:0 ~dst:buf
        ~dst_off:9 ~len);
  let ct = Bytes.sub buf 4 len and tag = Bytes.sub buf (4 + len) 32 in
  (* unseal_in_place over a slice of a larger buffer opens the slice
     alone. *)
  let framed = Bytes.make (len + 8) '*' in
  Bytes.blit ct 0 framed 4 len;
  Authenc.unseal_in_place keys ~aad ~nonce ~tag framed ~off:4 ~len;
  Alcotest.(check string)
    "in-place unseal of a slice"
    ("****" ^ Bytes.to_string plaintext ^ "****")
    (Bytes.to_string framed);
  (* Each refusal leaves the buffer untouched: a wrong AAD, a wrong
     nonce, a flipped tag bit and a flipped ciphertext bit. *)
  let flip b = Bytes.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) b in
  List.iter
    (fun (what, aad, nonce, tag, ct) ->
      let buf = Bytes.copy ct in
      Alcotest.check_raises what Authenc.Authentication_failure (fun () ->
          Authenc.unseal_in_place keys ~aad ~nonce ~tag buf ~off:0 ~len);
      Alcotest.(check string)
        (what ^ ": buffer untouched") (Bytes.to_string ct) (Bytes.to_string buf))
    [
      ("wrong aad", Bytes.of_string "other", nonce, tag, ct);
      ("wrong nonce", aad, flip nonce, tag, ct);
      ("tampered tag", aad, nonce, flip tag, ct);
      ("tampered ciphertext", aad, nonce, tag, flip ct);
    ];
  (* A one-shot blob is the frame with its nonce in front. *)
  Alcotest.(check string)
    "one-shot unseal of seal_into output" (Bytes.to_string plaintext)
    (Bytes.to_string
       (Authenc.unseal keys ~aad (Bytes.concat Bytes.empty [ nonce; ct; tag ])))

(* --- properties ---------------------------------------------------------------------------- *)

(* RFC 5869 HKDF-Expand spelled out with one-shot HMACs:
   T(i) = HMAC(PRK, T(i-1) || info || i). *)
let reference_expand ~prk ~info ~len =
  let rec go prev i okm =
    if Bytes.length okm >= len then Bytes.sub okm 0 len
    else
      let t =
        Hmac.hmac ~key:prk
          (Bytes.concat Bytes.empty
             [ prev; Bytes.of_string info; Bytes.make 1 (Char.chr i) ])
      in
      go t (i + 1) (Bytes.cat okm t)
  in
  go Bytes.empty 1 Bytes.empty

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"aes encrypt/decrypt roundtrip" ~count:100
      (string_of_size (Gen.return 16))
      (fun s ->
        let key = Aes.expand_key (Bytes.of_string "aaaabbbbccccdddd") in
        let block = Bytes.of_string s in
        Bytes.equal (Aes.decrypt_block key (Aes.encrypt_block key block)) block);
    Test.make ~name:"ctr roundtrip any length" ~count:100 string (fun s ->
        let key = Bytes.of_string "0123456789abcdef" in
        let nonce = Bytes.make 12 'n' in
        let data = Bytes.of_string s in
        Bytes.equal
          (Aes.ctr_transform ~key ~nonce (Aes.ctr_transform ~key ~nonce data))
          data);
    Test.make ~name:"authenc seal/unseal roundtrip" ~count:100
      (pair string string)
      (fun (secret, aad) ->
        let keys = Authenc.prepare (Hmac.derive ~key:(Bytes.of_string "k") ~info:"t") in
        let aad = Bytes.of_string aad in
        let blob =
          Authenc.seal keys ~aad ~nonce:(Bytes.make 12 'x') (Bytes.of_string secret)
        in
        Bytes.length blob = String.length secret + Authenc.overhead
        && Bytes.to_string (Authenc.unseal keys ~aad blob) = secret);
    (* One prepared [keys] value, reused across a random interleaving of
       operations, must match one-shot seals and unseals under freshly
       prepared keys exactly: MAC scratch state may not leak from one
       operation into the next. *)
    Test.make ~name:"authenc reused keys = one-shot" ~count:100
      (list_of_size (Gen.int_range 1 12)
         (quad (int_bound 2) (int_bound 255)
            (string_of_size (Gen.int_bound 300))
            (string_of_size (Gen.int_bound 40))))
      (fun ops ->
        let key = Hmac.derive ~key:(Bytes.of_string "reuse") ~info:"prop" in
        let keys = Authenc.prepare key in
        List.for_all
          (fun (op, n, msg, aad) ->
            let nonce = Bytes.make 12 (Char.chr n) in
            let plaintext = Bytes.of_string msg and aad = Bytes.of_string aad in
            let len = Bytes.length plaintext in
            let fresh = Authenc.seal (Authenc.prepare key) ~aad ~nonce plaintext in
            let fresh_ct = Bytes.sub fresh 12 len
            and fresh_tag = Bytes.sub fresh (12 + len) 32 in
            match op with
            | 0 ->
                let frame = Bytes.create (len + 32) in
                Authenc.seal_into keys ~aad ~nonce ~src:plaintext ~src_off:0
                  ~dst:frame ~dst_off:0 ~len;
                Bytes.equal frame (Bytes.cat fresh_ct fresh_tag)
            | 1 -> (
                (* A wrong AAD is refused and leaves the buffer as it was. *)
                let buf = Bytes.copy fresh_ct in
                match
                  Authenc.unseal_in_place keys ~aad:(Bytes.cat aad (Bytes.of_string "!"))
                    ~nonce ~tag:fresh_tag buf ~off:0 ~len
                with
                | () -> false
                | exception Authenc.Authentication_failure ->
                    Bytes.equal buf fresh_ct)
            | _ ->
                let buf = Bytes.copy fresh_ct in
                Authenc.unseal_in_place keys ~aad ~nonce ~tag:fresh_tag buf ~off:0
                  ~len;
                Bytes.equal buf plaintext
                && Bytes.equal buf (Authenc.unseal (Authenc.prepare key) ~aad fresh))
          ops);
    (* Extract once, expand many: every expand under one prepared PRK
       gives the bytes of the RFC spelled out over hkdf_extract's PRK,
       whatever expanded under it before, and derive is its first
       32-byte block. *)
    Test.make ~name:"hkdf expand under a prepared PRK = the RFC expand"
      ~count:100
      (pair string
         (list_of_size (Gen.int_range 1 4) (pair small_string (int_bound 100))))
      (fun (ikm, outputs) ->
        let ikm = Bytes.of_string ikm in
        let prk = Hmac.extract ~ikm in
        let raw_prk = Hmac.hkdf_extract ~ikm () in
        List.for_all
          (fun (info, len) ->
            Bytes.equal (Hmac.expand prk ~info ~len)
              (reference_expand ~prk:raw_prk ~info ~len)
            && Bytes.equal (Hmac.derive ~key:ikm ~info)
                 (reference_expand ~prk:raw_prk ~info ~len:32))
          outputs);
    Test.make ~name:"sha256 distinct on distinct strings" ~count:200
      (pair small_string small_string)
      (fun (a, b) ->
        a = b || not (Sha256.equal (Sha256.digest_string a) (Sha256.digest_string b)));
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest qcheck_tests
  @ [
      Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
      Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
      Alcotest.test_case "sha256 equal" `Quick test_sha256_equal;
      Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
      Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
      Alcotest.test_case "hkdf rfc5869" `Quick test_hkdf;
      Alcotest.test_case "aes fips vector" `Quick test_aes_vector;
      Alcotest.test_case "aes ctr" `Quick test_aes_ctr;
      Alcotest.test_case "aes xts" `Quick test_aes_xts;
      Alcotest.test_case "signatures" `Quick test_signature;
      Alcotest.test_case "authenc" `Quick test_authenc;
      Alcotest.test_case "aes ctr_into slices" `Quick test_ctr_into;
      Alcotest.test_case "ctr and prepared seal allocate no scratch" `Quick
        test_ctr_allocation;
      Alcotest.test_case "authenc prepare allocates its keys only" `Quick
        test_prepare_allocation;
      Alcotest.test_case "hkdf expand_into writes its slice" `Quick
        test_expand_into;
      Alcotest.test_case "sha256 update_sub" `Quick test_update_sub;
      Alcotest.test_case "prepared hmac = one-shot hmac" `Quick
        test_prepared_hmac;
      Alcotest.test_case "sha256 padding boundaries" `Quick
        test_sha256_padding;
      Alcotest.test_case "authenc zero-copy" `Quick test_authenc_zero_copy;
      Alcotest.test_case "authenc known-answer vectors" `Quick test_authenc_kat;
    ]
