exception Authentication_failure

(* Prepared key material: the HKDF split, the AES key schedule and the
   HMAC pad midstates are paid once per key instead of once per seal.
   [hdr] is scratch for the MAC input's length prefixes and [tag] the
   scratch an opened frame's tag is recomputed into. *)
type keys = { enc : Aes.key; mac : Hmac.prepared; hdr : bytes; tag : bytes }

let tag_bytes = Sha256.digest_size

(* One HKDF extract, two expands: the cipher key is the first 16 bytes
   of the "authenc-enc" block, the MAC key the whole "authenc-mac"
   block.  Both blocks are expanded into the MAC key's pad, whose second
   half stays zero, and the MAC key is prepared in the extract's
   scratch. *)
let prepare key =
  if Bytes.length key <> 32 then invalid_arg "Authenc: key must be 32 bytes";
  let prk = Hmac.extract ~ikm:key in
  let pad = Bytes.make 64 '\000' in
  Hmac.expand_into prk ~info:"authenc-enc" pad ~off:0 ~len:tag_bytes;
  let enc = Aes.expand_key (Bytes.sub pad 0 16) in
  Hmac.expand_into prk ~info:"authenc-mac" pad ~off:0 ~len:tag_bytes;
  {
    enc;
    mac = Hmac.prepare_in prk pad;
    hdr = Bytes.create 4;
    tag = Bytes.create tag_bytes;
  }

(* One MAC-input field: a 4-byte big-endian length, then the bytes. *)
let absorb_framed keys ctx b ~off ~len =
  Bytes.set_int32_be keys.hdr 0 (Int32.of_int len);
  Sha256.update ctx keys.hdr;
  Sha256.update_sub ctx b ~off ~len

(* The MAC input is nonce, AAD and ciphertext, each length-framed, fed
   straight into the key's scratch context: ring-resident ciphertext is
   hashed where it lies, and the tag is written to [dst] at [dst_off]. *)
let tag_into keys ~nonce ~aad ~ct ~ct_off ~ct_len ~dst ~dst_off =
  let ctx = Hmac.start keys.mac in
  absorb_framed keys ctx nonce ~off:0 ~len:(Bytes.length nonce);
  absorb_framed keys ctx aad ~off:0 ~len:(Bytes.length aad);
  absorb_framed keys ctx ct ~off:ct_off ~len:ct_len;
  Hmac.finish_into keys.mac dst ~off:dst_off

let seal_into keys ~aad ~nonce ~src ~src_off ~dst ~dst_off ~len =
  if Bytes.length nonce <> 12 then
    invalid_arg "Authenc.seal_into: nonce must be 12 bytes";
  if len < 0 || dst_off < 0 || dst_off + len + tag_bytes > Bytes.length dst then
    invalid_arg "Authenc.seal_into: no room for the frame";
  Aes.ctr_into ~key:keys.enc ~nonce ~src ~src_off ~dst ~dst_off ~len;
  tag_into keys ~nonce ~aad ~ct:dst ~ct_off:dst_off ~ct_len:len ~dst
    ~dst_off:(dst_off + len)

let unseal_in_place keys ~aad ~nonce ~tag buf ~off ~len =
  tag_into keys ~nonce ~aad ~ct:buf ~ct_off:off ~ct_len:len ~dst:keys.tag
    ~dst_off:0;
  if not (Sha256.equal keys.tag tag) then raise Authentication_failure;
  Aes.ctr_into ~key:keys.enc ~nonce ~src:buf ~src_off:off ~dst:buf ~dst_off:off
    ~len

(* A one-shot blob is nonce ‖ ciphertext ‖ tag: the frame layout with
   its nonce in front.  The AAD never travels; the opener derives it. *)
let overhead = 12 + tag_bytes

let seal keys ~aad ~nonce plaintext =
  let len = Bytes.length plaintext in
  let blob = Bytes.create (overhead + len) in
  seal_into keys ~aad ~nonce ~src:plaintext ~src_off:0 ~dst:blob ~dst_off:12
    ~len;
  Bytes.blit nonce 0 blob 0 12;
  blob

let unseal keys ~aad blob =
  let len = Bytes.length blob - overhead in
  if len < 0 then raise Authentication_failure;
  let buf = Bytes.sub blob 12 len in
  unseal_in_place keys ~aad ~nonce:(Bytes.sub blob 0 12)
    ~tag:(Bytes.sub blob (12 + len) tag_bytes) buf ~off:0 ~len;
  buf
