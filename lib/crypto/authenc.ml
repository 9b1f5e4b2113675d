type sealed = { nonce : bytes; ciphertext : bytes; tag : bytes; aad : bytes }

exception Authentication_failure

let split_key key =
  if Bytes.length key <> 32 then invalid_arg "Authenc: key must be 32 bytes";
  let enc_key = Hmac.derive ~key ~info:"authenc-enc" in
  let mac_key = Hmac.derive ~key ~info:"authenc-mac" in
  (Bytes.sub enc_key 0 16, mac_key)

(* Prepared key material: the HKDF split, the AES key schedule and the
   HMAC pad midstates are paid once per key instead of once per seal.
   [hdr] is scratch for the MAC input's length prefixes. *)
type keys = { enc : Aes.key; mac : Hmac.prepared; hdr : bytes }

let prepare key =
  let enc_key, mac_key = split_key key in
  {
    enc = Aes.expand_key enc_key;
    mac = Hmac.prepare ~key:mac_key;
    hdr = Bytes.create 4;
  }

(* One MAC-input field: a 4-byte big-endian length, then the bytes. *)
let absorb_framed keys ctx b ~off ~len =
  Bytes.set_int32_be keys.hdr 0 (Int32.of_int len);
  Sha256.update ctx keys.hdr;
  Sha256.update_sub ctx b ~off ~len

(* The MAC input is nonce, AAD and ciphertext, each length-framed, fed
   straight into the key's scratch context: ring-resident ciphertext is
   hashed where it lies and nothing is allocated but the tag. *)
let tag_of_slice keys ~nonce ~aad ~ct ~ct_off ~ct_len =
  let ctx = Hmac.start keys.mac in
  absorb_framed keys ctx nonce ~off:0 ~len:(Bytes.length nonce);
  absorb_framed keys ctx aad ~off:0 ~len:(Bytes.length aad);
  absorb_framed keys ctx ct ~off:ct_off ~len:ct_len;
  Hmac.finish keys.mac

let seal_into keys ~aad ~nonce ~src ~src_off ~dst ~dst_off ~len =
  if Bytes.length nonce <> 12 then
    invalid_arg "Authenc.seal_into: nonce must be 12 bytes";
  Aes.ctr_into ~key:keys.enc ~nonce ~src ~src_off ~dst ~dst_off ~len;
  tag_of_slice keys ~nonce ~aad ~ct:dst ~ct_off:dst_off ~ct_len:len

let unseal_in_place keys ~aad ~nonce ~tag buf ~off ~len =
  let mac = tag_of_slice keys ~nonce ~aad ~ct:buf ~ct_off:off ~ct_len:len in
  if not (Sha256.equal mac tag) then raise Authentication_failure;
  Aes.ctr_into ~key:keys.enc ~nonce ~src:buf ~src_off:off ~dst:buf ~dst_off:off
    ~len

let seal ~key ?(aad = Bytes.empty) ~nonce plaintext =
  if Bytes.length nonce <> 12 then invalid_arg "Authenc.seal: nonce must be 12 bytes";
  let len = Bytes.length plaintext in
  let ciphertext = Bytes.create len in
  let tag =
    seal_into (prepare key) ~aad ~nonce ~src:plaintext ~src_off:0
      ~dst:ciphertext ~dst_off:0 ~len
  in
  { nonce; ciphertext; tag; aad }

let unseal ~key sealed =
  let buf = Bytes.copy sealed.ciphertext in
  unseal_in_place (prepare key) ~aad:sealed.aad ~nonce:sealed.nonce
    ~tag:sealed.tag buf ~off:0 ~len:(Bytes.length buf);
  buf

let encode sealed =
  let buf = Buffer.create (Bytes.length sealed.ciphertext + 64) in
  let add_framed b =
    let len = Bytes.create 4 in
    Bytes.set_int32_be len 0 (Int32.of_int (Bytes.length b));
    Buffer.add_bytes buf len;
    Buffer.add_bytes buf b
  in
  add_framed sealed.nonce;
  add_framed sealed.aad;
  add_framed sealed.ciphertext;
  add_framed sealed.tag;
  Buffer.to_bytes buf

let decode raw =
  let pos = ref 0 in
  let take_framed () =
    if !pos + 4 > Bytes.length raw then invalid_arg "Authenc.decode: truncated";
    let len = Int32.to_int (Bytes.get_int32_be raw !pos) in
    pos := !pos + 4;
    if len < 0 || !pos + len > Bytes.length raw then
      invalid_arg "Authenc.decode: truncated";
    let b = Bytes.sub raw !pos len in
    pos := !pos + len;
    b
  in
  let nonce = take_framed () in
  let aad = take_framed () in
  let ciphertext = take_framed () in
  let tag = take_framed () in
  if !pos <> Bytes.length raw then invalid_arg "Authenc.decode: trailing bytes";
  { nonce; ciphertext; tag; aad }
