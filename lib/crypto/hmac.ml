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

(* A prepared key keeps the two pad midstates, so a MAC under it
   compresses only the message and the outer digest block; [scratch] is
   the one context every MAC under the key runs in. *)
type prepared = {
  inner : Sha256.midstate;
  outer : Sha256.midstate;
  scratch : Sha256.ctx;
}

(* The SHA-256 initial state: [prepare] rewinds its scratch to it
   between the two pads. *)
let iv = Sha256.midstate (Sha256.init ())

(* The pad midstates of the normalised key [pad], computed in [scratch],
   which the prepared key keeps.  The XOR with 0x36 makes the inner pad
   in place, and re-XORing with 0x36 lxor 0x5c turns it into the outer
   pad without a second buffer. *)
let pad_midstate scratch pad byte =
  xor_pad_in_place pad byte;
  Sha256.restore scratch ~from:iv;
  Sha256.update scratch pad;
  Sha256.midstate scratch

let prepare_pad scratch pad =
  let inner = pad_midstate scratch pad 0x36 in
  let outer = pad_midstate scratch pad (0x36 lxor 0x5c) in
  { inner; outer; scratch }

let prepare ~key = prepare_pad (Sha256.init ()) (normalize_key key)

let start p =
  Sha256.restore p.scratch ~from:p.inner;
  p.scratch

(* The inner digest lands in the tag's own slot and is carried into the
   outer hash from there: [update_sub] copies it into the context's block
   buffer before the outer [finalize_into] overwrites it. *)
let finish_into p dst ~off =
  Sha256.finalize_into p.scratch dst ~off;
  Sha256.restore p.scratch ~from:p.outer;
  Sha256.update_sub p.scratch dst ~off ~len:Sha256.digest_size;
  Sha256.finalize_into p.scratch dst ~off

let finish p =
  let tag = Bytes.create Sha256.digest_size in
  finish_into p tag ~off:0;
  tag

let hmac ~key msg =
  let p = prepare ~key in
  Sha256.update (start p) msg;
  finish p

(* [hmac] never mutates [msg], so borrow the string's bytes. *)
let hmac_string ~key msg = hmac ~key (Bytes.unsafe_of_string msg)
let verify ~key msg ~tag = Sha256.equal (hmac ~key msg) tag

let hkdf_extract ?salt ~ikm () =
  let salt = match salt with Some s -> s | None -> Bytes.make 32 '\000' in
  hmac ~key:salt ikm

(* The zero salt's pad midstates, computed once: midstates are never
   mutated, so every extract shares them and brings its own scratch. *)
let zero_salt_inner, zero_salt_outer =
  let p = prepare ~key:(Bytes.make Sha256.digest_size '\000') in
  (p.inner, p.outer)

(* The PRK is written straight into the pad it is prepared from, and the
   extract's scratch becomes the PRK's. *)
let extract ~ikm =
  let salt =
    {
      inner = zero_salt_inner;
      outer = zero_salt_outer;
      scratch = Sha256.init ();
    }
  in
  Sha256.update (start salt) ikm;
  let pad = Bytes.make block_size '\000' in
  finish_into salt pad ~off:0;
  prepare_pad salt.scratch pad

let prepare_in spent pad =
  if Bytes.length pad <> block_size then
    invalid_arg "Hmac.prepare_in: pad must be 64 bytes";
  prepare_pad spent.scratch pad

(* T(i) = HMAC(PRK, T(i-1) || info || i): the counter byte is fed from
   this table.  A block that fits is finished straight into [dst], and
   the next block reads it from there; only a last partial block
   allocates its tag. *)
let counters = Bytes.init 255 (fun i -> Char.chr (i + 1))

let rec expand_blocks prk ~info dst ~at ~stop i =
  if at < stop then begin
    let ctx = start prk in
    if i > 0 then
      Sha256.update_sub ctx dst ~off:(at - Sha256.digest_size)
        ~len:Sha256.digest_size;
    Sha256.update_string ctx info;
    Sha256.update_sub ctx counters ~off:i ~len:1;
    if at + Sha256.digest_size <= stop then begin
      finish_into prk dst ~off:at;
      expand_blocks prk ~info dst ~at:(at + Sha256.digest_size) ~stop (i + 1)
    end
    else Bytes.blit (finish prk) 0 dst at (stop - at)
  end

let check_len len =
  if len < 0 || len > 255 * Sha256.digest_size then
    invalid_arg "Hmac.expand: len out of range"

let expand_into prk ~info dst ~off ~len =
  check_len len;
  if off < 0 || off + len > Bytes.length dst then
    invalid_arg "Hmac.expand_into: slice out of bounds";
  expand_blocks prk ~info dst ~at:off ~stop:(off + len) 0

let expand prk ~info ~len =
  check_len len;
  let out = Bytes.create len in
  expand_into prk ~info out ~off:0 ~len;
  out

let derive ~key ~info = expand (extract ~ikm:key) ~info ~len:32
