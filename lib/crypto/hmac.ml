let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest_bytes key else key in
  let out = Bytes.make block_size '\000' in
  Bytes.blit key 0 out 0 (Bytes.length key);
  out

let xor_pad_in_place pad byte =
  for i = 0 to block_size - 1 do
    Bytes.unsafe_set pad i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get pad i) lxor byte))
  done

(* A named loop, not [List.iter] over a closure: every HMAC runs it, and
   it allocates nothing. *)
let rec absorb ctx = function
  | [] -> ()
  | (b, off, len) :: rest ->
      Sha256.update_sub ctx b ~off ~len;
      absorb ctx rest

(* HMAC over a concatenation of slices, none of which are copied: the
   zero-copy AEAD path MACs length-prefix headers and ring-resident
   ciphertext without assembling the message in a scratch buffer. *)
let hmac_slices ~key slices =
  (* [normalize_key] already copies, so the pad mutates that copy:
     XOR 0x36 makes the inner pad, and re-XORing with 0x36 lxor 0x5c
     turns it into the outer pad without a second buffer. *)
  let pad = normalize_key key in
  xor_pad_in_place pad 0x36;
  let inner = Sha256.init () in
  Sha256.update inner pad;
  absorb inner slices;
  let inner_digest = Sha256.finalize inner in
  xor_pad_in_place pad (0x36 lxor 0x5c);
  let outer = Sha256.init () in
  Sha256.update outer pad;
  Sha256.update outer inner_digest;
  Sha256.finalize outer

let hmac ~key msg = hmac_slices ~key [ (msg, 0, Bytes.length msg) ]

(* [hmac] never mutates [msg], so borrow the string's bytes. *)
let hmac_string ~key msg = hmac ~key (Bytes.unsafe_of_string msg)
let verify ~key msg ~tag = Sha256.equal (hmac ~key msg) tag

let hkdf_extract ?salt ~ikm () =
  let salt = match salt with Some s -> s | None -> Bytes.make 32 '\000' in
  hmac ~key:salt ikm

let hkdf_expand ~prk ~info ~len =
  if len > 255 * 32 then invalid_arg "Hmac.hkdf_expand: len too large";
  let out = Buffer.create len in
  let prev = ref Bytes.empty in
  let counter = ref 1 in
  while Buffer.length out < len do
    let block = Buffer.create (Bytes.length !prev + String.length info + 1) in
    Buffer.add_bytes block !prev;
    Buffer.add_string block info;
    Buffer.add_char block (Char.chr !counter);
    prev := hmac ~key:prk (Buffer.to_bytes block);
    Buffer.add_bytes out !prev;
    incr counter
  done;
  Bytes.sub (Buffer.to_bytes out) 0 len

let derive ~key ~info =
  hkdf_expand ~prk:(hkdf_extract ~ikm:key ()) ~info ~len:32
