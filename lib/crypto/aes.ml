(* AES-128, byte-oriented reference implementation (FIPS 197). *)

let sbox =
  [|
    0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b;
    0xfe; 0xd7; 0xab; 0x76; 0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0;
    0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0; 0xb7; 0xfd; 0x93; 0x26;
    0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
    0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2;
    0xeb; 0x27; 0xb2; 0x75; 0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0;
    0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84; 0x53; 0xd1; 0x00; 0xed;
    0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
    0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f;
    0x50; 0x3c; 0x9f; 0xa8; 0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5;
    0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2; 0xcd; 0x0c; 0x13; 0xec;
    0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
    0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14;
    0xde; 0x5e; 0x0b; 0xdb; 0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c;
    0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79; 0xe7; 0xc8; 0x37; 0x6d;
    0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
    0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f;
    0x4b; 0xbd; 0x8b; 0x8a; 0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e;
    0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e; 0xe1; 0xf8; 0x98; 0x11;
    0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
    0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f;
    0xb0; 0x54; 0xbb; 0x16;
  |]

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox;
  t

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then (b lxor 0x1b) land 0xff else b

type key = {
  w : int array; (* the schedule as 44 big-endian words *)
  counter : bytes; (* CTR scratch: the counter block *)
  keystream : int array; (* CTR scratch: the state the counter encrypts to *)
}

let expand_key raw =
  if Bytes.length raw <> 16 then invalid_arg "Aes.expand_key: need 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <-
      (Char.code (Bytes.get raw (4 * i)) lsl 24)
      lor (Char.code (Bytes.get raw ((4 * i) + 1)) lsl 16)
      lor (Char.code (Bytes.get raw ((4 * i) + 2)) lsl 8)
      lor Char.code (Bytes.get raw ((4 * i) + 3))
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let temp = ref w.(i - 1) in
    if i mod 4 = 0 then begin
      (* RotWord + SubWord + Rcon *)
      let rotated = ((!temp lsl 8) lor (!temp lsr 24)) land 0xffffffff in
      let subbed =
        (sbox.((rotated lsr 24) land 0xff) lsl 24)
        lor (sbox.((rotated lsr 16) land 0xff) lsl 16)
        lor (sbox.((rotated lsr 8) land 0xff) lsl 8)
        lor sbox.(rotated land 0xff)
      in
      temp := subbed lxor (!rcon lsl 24);
      rcon := xtime !rcon
    end;
    w.(i) <- w.(i - 4) lxor !temp
  done;
  { w; counter = Bytes.create 16; keystream = Array.make 16 0 }

(* Round [r]'s key, byte [i] of the state, read out of its schedule
   word: only the decrypt path works byte-wise. *)
let add_round_key state (key : key) r =
  for i = 0 to 15 do
    let word = Array.unsafe_get key.w ((4 * r) + (i / 4)) in
    Array.unsafe_set state i
      (Array.unsafe_get state i lxor ((word lsr (8 * (3 - (i mod 4)))) land 0xff))
  done

let sub_bytes state table =
  for i = 0 to 15 do
    Array.unsafe_set state i (Array.unsafe_get table (Array.unsafe_get state i))
  done

(* State layout: state.(4*c + r) is row r, column c (column-major bytes,
   matching the order bytes enter the cipher). *)
let inv_shift_rows state =
  let t = state.(13) in
  state.(13) <- state.(9);
  state.(9) <- state.(5);
  state.(5) <- state.(1);
  state.(1) <- t;
  let t = state.(2) in
  state.(2) <- state.(10);
  state.(10) <- t;
  let t = state.(6) in
  state.(6) <- state.(14);
  state.(14) <- t;
  let t = state.(3) in
  state.(3) <- state.(7);
  state.(7) <- state.(11);
  state.(11) <- state.(15);
  state.(15) <- t

(* GF(2^8) multiplies by the inverse MixColumns constants, as xtime
   chains instead of the generic shift-and-add loop. *)
let inv_mix_columns state =
  for c = 0 to 3 do
    let a0 = state.(4 * c)
    and a1 = state.((4 * c) + 1)
    and a2 = state.((4 * c) + 2)
    and a3 = state.((4 * c) + 3) in
    (* x9 = 8a^a, x11 = 8a^2a^a, x13 = 8a^4a^a, x14 = 8a^4a^2a. *)
    let d0 = xtime a0 and d1 = xtime a1 and d2 = xtime a2 and d3 = xtime a3 in
    let q0 = xtime d0 and q1 = xtime d1 and q2 = xtime d2 and q3 = xtime d3 in
    let o0 = xtime q0 and o1 = xtime q1 and o2 = xtime q2 and o3 = xtime q3 in
    state.(4 * c) <-
      o0 lxor q0 lxor d0
      lxor (o1 lxor d1 lxor a1)
      lxor (o2 lxor q2 lxor a2)
      lxor (o3 lxor a3);
    state.((4 * c) + 1) <-
      o0 lxor a0
      lxor (o1 lxor q1 lxor d1)
      lxor (o2 lxor d2 lxor a2)
      lxor (o3 lxor q3 lxor a3);
    state.((4 * c) + 2) <-
      o0 lxor q0 lxor a0
      lxor (o1 lxor a1)
      lxor (o2 lxor q2 lxor d2)
      lxor (o3 lxor d3 lxor a3);
    state.((4 * c) + 3) <-
      o0 lxor d0 lxor a0
      lxor (o1 lxor q1 lxor a1)
      lxor (o2 lxor a2)
      lxor (o3 lxor q3 lxor d3)
  done

let load_state state b off =
  for i = 0 to 15 do
    state.(i) <- Char.code (Bytes.get b (off + i))
  done

let state_of_bytes b off = Array.init 16 (fun i -> Char.code (Bytes.get b (off + i)))

let bytes_of_state state =
  let out = Bytes.create 16 in
  Array.iteri (fun i v -> Bytes.set out i (Char.chr v)) state;
  out

(* Encryption T-tables: te0.(x) packs S[x] times the MixColumns column
   (02,01,01,03) into one big-endian word, and te1..te3 are its byte
   rotations, so SubBytes + ShiftRows + MixColumns for an output column
   collapse to four lookups and three XORs.  This is the hot path: CTR
   runs [encrypt_state] 256 times per 4 KiB page. *)
let te0 =
  Array.init 256 (fun a ->
      let s = sbox.(a) in
      let s2 = xtime s in
      (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s lxor s2))

let ror8 w = ((w lsr 8) lor (w lsl 24)) land 0xffffffff
let te1 = Array.map ror8 te0
let te2 = Array.map ror8 te1
let te3 = Array.map ror8 te2

(* Column [c] of [state] as a big-endian word, and back.  Top-level, so
   no closure over [state] is built per block. *)
let col state c =
  (Array.unsafe_get state (4 * c) lsl 24)
  lor (Array.unsafe_get state ((4 * c) + 1) lsl 16)
  lor (Array.unsafe_get state ((4 * c) + 2) lsl 8)
  lor Array.unsafe_get state ((4 * c) + 3)

let put state c w =
  state.(4 * c) <- (w lsr 24) land 0xff;
  state.((4 * c) + 1) <- (w lsr 16) land 0xff;
  state.((4 * c) + 2) <- (w lsr 8) land 0xff;
  state.((4 * c) + 3) <- w land 0xff

let encrypt_state key state =
  let kw = key.w in
  let s0 = ref (col state 0 lxor kw.(0))
  and s1 = ref (col state 1 lxor kw.(1))
  and s2 = ref (col state 2 lxor kw.(2))
  and s3 = ref (col state 3 lxor kw.(3)) in
  (* Output column j reads rows 0..3 from input columns j, j+1, j+2, j+3
     (mod 4) — that byte walk IS ShiftRows. *)
  let round_col a b c d k =
    Array.unsafe_get te0 ((a lsr 24) land 0xff)
    lxor Array.unsafe_get te1 ((b lsr 16) land 0xff)
    lxor Array.unsafe_get te2 ((c lsr 8) land 0xff)
    lxor Array.unsafe_get te3 (d land 0xff)
    lxor k
  in
  for round = 1 to 9 do
    let k = 4 * round in
    let t0 = round_col !s0 !s1 !s2 !s3 (Array.unsafe_get kw k)
    and t1 = round_col !s1 !s2 !s3 !s0 (Array.unsafe_get kw (k + 1))
    and t2 = round_col !s2 !s3 !s0 !s1 (Array.unsafe_get kw (k + 2))
    and t3 = round_col !s3 !s0 !s1 !s2 (Array.unsafe_get kw (k + 3)) in
    s0 := t0;
    s1 := t1;
    s2 := t2;
    s3 := t3
  done;
  (* Final round: SubBytes + ShiftRows only, straight from the S-box. *)
  let last_col a b c d k =
    (Array.unsafe_get sbox ((a lsr 24) land 0xff) lsl 24)
    lor (Array.unsafe_get sbox ((b lsr 16) land 0xff) lsl 16)
    lor (Array.unsafe_get sbox ((c lsr 8) land 0xff) lsl 8)
    lor Array.unsafe_get sbox (d land 0xff)
    lxor k
  in
  put state 0 (last_col !s0 !s1 !s2 !s3 kw.(40));
  put state 1 (last_col !s1 !s2 !s3 !s0 kw.(41));
  put state 2 (last_col !s2 !s3 !s0 !s1 kw.(42));
  put state 3 (last_col !s3 !s0 !s1 !s2 kw.(43))

let decrypt_state key state =
  add_round_key state key 10;
  inv_shift_rows state;
  sub_bytes state inv_sbox;
  for round = 9 downto 1 do
    add_round_key state key round;
    inv_mix_columns state;
    inv_shift_rows state;
    sub_bytes state inv_sbox
  done;
  add_round_key state key 0

let encrypt_block key block =
  if Bytes.length block <> 16 then invalid_arg "Aes.encrypt_block";
  let state = state_of_bytes block 0 in
  encrypt_state key state;
  bytes_of_state state

let decrypt_block key block =
  if Bytes.length block <> 16 then invalid_arg "Aes.decrypt_block";
  let state = state_of_bytes block 0 in
  decrypt_state key state;
  bytes_of_state state

(* CTR over a caller-provided slice, with a caller-expanded key schedule:
   the zero-copy path runs the keystream XOR straight over [src] into
   [dst] (the two may alias, or even be the same buffer at the same
   offset for a true in-place transform), so neither a fresh output
   buffer nor a per-call key expansion is paid.  The counter block and
   the state array are the key's own scratch, reused for every block of
   every call, and the keystream is XORed out of the state directly: a
   call allocates nothing. *)
let ctr_into ~key ~nonce ~src ~src_off ~dst ~dst_off ~len =
  if Bytes.length nonce > 12 then invalid_arg "Aes.ctr_into: nonce > 12";
  if len < 0 || src_off < 0 || src_off + len > Bytes.length src then
    invalid_arg "Aes.ctr_into: source slice out of bounds";
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Aes.ctr_into: destination slice out of bounds";
  let counter_block = key.counter and state = key.keystream in
  Bytes.fill counter_block 0 12 '\000';
  Bytes.blit nonce 0 counter_block 0 (Bytes.length nonce);
  let nblocks = (len + 15) / 16 in
  for blk = 0 to nblocks - 1 do
    Bytes.set_int32_be counter_block 12 (Int32.of_int blk);
    load_state state counter_block 0;
    encrypt_state key state;
    let base = blk * 16 in
    let chunk = min 16 (len - base) in
    for i = 0 to chunk - 1 do
      Bytes.unsafe_set dst (dst_off + base + i)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get src (src_off + base + i))
           lxor Array.unsafe_get state i))
    done
  done

let ctr_transform ~key ~nonce data =
  let len = Bytes.length data in
  let out = Bytes.create len in
  ctr_into ~key:(expand_key key) ~nonce ~src:data ~src_off:0 ~dst:out
    ~dst_off:0 ~len;
  out

(* XTS-style: tweak = E(addr-block) XORed around the block cipher, with a
   GF doubling between consecutive blocks. *)
let tweak_block key tweak =
  let t = Bytes.make 16 '\000' in
  Bytes.set_int64_le t 0 (Int64.of_int tweak);
  encrypt_block key t

let gf_double_in_place block =
  let carry = ref 0 in
  for i = 0 to 15 do
    let v = (Char.code (Bytes.unsafe_get block i) lsl 1) lor !carry in
    Bytes.unsafe_set block i (Char.unsafe_chr (v land 0xff));
    carry := v lsr 8
  done;
  if !carry <> 0 then
    Bytes.unsafe_set block 0
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get block 0) lxor 0x87))

let xts_run ~key ~tweak ~decrypt data =
  if Bytes.length data mod 16 <> 0 then invalid_arg "Aes.xts: length % 16 <> 0";
  let key = expand_key key in
  let out = Bytes.create (Bytes.length data) in
  (* The tweak doubles in place and the whitening XORs happen while
     loading/storing the reused state array, so the per-block
     [Bytes.sub]/[xor16] temporaries of the reference code are gone. *)
  let t = tweak_block key tweak in
  let state = Array.make 16 0 in
  for blk = 0 to (Bytes.length data / 16) - 1 do
    let base = blk * 16 in
    for i = 0 to 15 do
      state.(i) <-
        Char.code (Bytes.unsafe_get data (base + i))
        lxor Char.code (Bytes.unsafe_get t i)
    done;
    if decrypt then decrypt_state key state else encrypt_state key state;
    for i = 0 to 15 do
      Bytes.unsafe_set out (base + i)
        (Char.unsafe_chr
           (Array.unsafe_get state i lxor Char.code (Bytes.unsafe_get t i)))
    done;
    gf_double_in_place t
  done;
  out

let xts_encrypt ~key ~tweak data = xts_run ~key ~tweak ~decrypt:false data
let xts_decrypt ~key ~tweak data = xts_run ~key ~tweak ~decrypt:true data
