open Hyperenclave_monitor
module Tpm = Hyperenclave_tpm.Tpm

(* Length-framed fields: u32 big-endian length + payload.  Composite
   fields nest the same scheme.  An integer travels as the decimal
   [string_of_int] writes, and the decoder accepts that spelling and no
   other, so a quote has exactly one wire form. *)

let magic = "HEQ1" (* magic + version *)
let frame = 4

(* --- encoding ---------------------------------------------------------------- *)

(* Every writer returns the offset after what it wrote.  Given the empty
   buffer it writes nothing and only measures, so [encode] runs the one
   description of the layout twice: to size the quote, then to fill one
   buffer of that size. *)
let measuring b = Bytes.length b = 0

let put_len b off n =
  if not (measuring b) then Bytes.set_int32_be b off (Int32.of_int n);
  off + frame

let put_bytes b off d =
  let off = put_len b off (Bytes.length d) in
  if not (measuring b) then Bytes.blit d 0 b off (Bytes.length d);
  off + Bytes.length d

let put_string b off s =
  let off = put_len b off (String.length s) in
  if not (measuring b) then Bytes.blit_string s 0 b off (String.length s);
  off + String.length s

let put_decimal b off n =
  if measuring b then off + Sgx_types.decimal_width n
  else Sgx_types.put_decimal b off n

let put_int b off n = put_decimal b (put_len b off (Sgx_types.decimal_width n)) n

(* A nested field: [write]'s bytes, then their length in front. *)
let put_nested b off write v =
  let stop = write b (off + frame) v in
  ignore (put_len b off (stop - off - frame) : int);
  stop

let put_report b off (r : Sgx_types.report) =
  let off = put_bytes b off r.mrenclave in
  let off = put_bytes b off r.mrsigner in
  let off = put_string b off (if r.attributes.debug then "1" else "0") in
  let off = put_string b off (Sgx_types.mode_name r.attributes.mode) in
  let off = put_int b off r.attributes.xfrm in
  let off = put_int b off r.isv_prod_id in
  let off = put_int b off r.isv_svn in
  let off = put_bytes b off r.report_data in
  let off = put_bytes b off r.key_id in
  put_bytes b off r.mac

(* The PCR selection is one string field, its indices comma-separated. *)
let rec put_indices b off = function
  | [] -> off
  | [ i ] -> put_decimal b off i
  | i :: rest ->
      let off = put_decimal b off i in
      if not (measuring b) then Bytes.set b off ',';
      put_indices b (off + 1) rest

let put_tpm_quote b off (q : Tpm.quote) =
  let off = put_bytes b off q.pcr_digest in
  let off = put_nested b off put_indices q.pcr_selection in
  let off = put_bytes b off q.nonce in
  let off = put_bytes b off q.signature in
  let off = put_bytes b off q.aik_public in
  let off = put_bytes b off q.aik_certificate in
  put_bytes b off q.ek_public

let put_event b off (e : Monitor.boot_event) =
  let off = put_int b off e.pcr_index in
  let off = put_string b off e.label in
  put_bytes b off e.measurement

let rec put_events b off = function
  | [] -> off
  | e :: rest -> put_events b (put_nested b off put_event e) rest

let put_quote b (q : Monitor.quote) =
  let off = put_string b 0 magic in
  let off = put_nested b off put_report q.report in
  let off = put_bytes b off q.ems in
  let off = put_bytes b off q.hapk in
  let off = put_nested b off put_tpm_quote q.tpm_quote in
  let off = put_int b off (List.length q.events) in
  put_events b off q.events

let encode q =
  let b = Bytes.create (put_quote Bytes.empty q) in
  ignore (put_quote b q : int);
  b

(* --- decoding ------------------------------------------------------------------ *)

(* One cursor walks the whole input: a nested record narrows [stop] to
   its own field and is read in place, and [next] leaves the field it
   claimed at [at, at + len).  Only leaf fields the quote keeps are
   copied out. *)
type cursor = {
  raw : bytes;
  mutable pos : int;
  mutable stop : int;
  mutable at : int;
  mutable len : int;
}

exception Malformed of string

let next c =
  if c.pos + frame > c.stop then raise (Malformed "truncated length");
  let len = Int32.to_int (Bytes.get_int32_be c.raw c.pos) in
  let at = c.pos + frame in
  if len < 0 || at + len > c.stop then raise (Malformed "truncated payload");
  c.at <- at;
  c.len <- len;
  c.pos <- at + len

let take c =
  next c;
  Bytes.sub c.raw c.at c.len

let take_string c =
  next c;
  Bytes.sub_string c.raw c.at c.len

(* The claimed field is exactly [s]. *)
let rec same c s i =
  i = c.len
  || (Bytes.unsafe_get c.raw (c.at + i) = String.unsafe_get s i && same c s (i + 1))

let spells c s = c.len = String.length s && same c s 0

(* The integer [string_of_int] spells as raw[at, at + len), and no other
   spelling: digits after at most a leading '-', no leading zero, no
   "-0", no '+', base prefix or '_', and no overflow.  [-|n|] is
   accumulated, so [min_int] fits. *)
let decimal raw ~at ~len what =
  let neg = len > 1 && Bytes.get raw at = '-' in
  let first = if neg then at + 1 else at and stop = at + len in
  if first >= stop || (Bytes.get raw first = '0' && (neg || stop - first > 1))
  then raise (Malformed what);
  let acc = ref 0 in
  for i = first to stop - 1 do
    let d = Char.code (Bytes.get raw i) - Char.code '0' in
    if d < 0 || d > 9 || !acc < (min_int + d) / 10 then raise (Malformed what);
    acc := (!acc * 10) - d
  done;
  if neg then !acc
  else if !acc = min_int then raise (Malformed what)
  else - !acc

let take_int c =
  next c;
  decimal c.raw ~at:c.at ~len:c.len "bad integer"

let take_bool c =
  next c;
  if spells c "1" then true
  else if spells c "0" then false
  else raise (Malformed "bad boolean")

let rec mode_of c = function
  | m :: rest -> if spells c (Sgx_types.mode_name m) then m else mode_of c rest
  | [] -> raise (Malformed ("unknown mode " ^ Bytes.sub_string c.raw c.at c.len))

let take_mode c =
  next c;
  mode_of c Sgx_types.all_modes

(* Read the next field as a nested record: [decode] sees only its
   bytes, and must consume them all. *)
let nested c decode name =
  next c;
  let outer = c.stop in
  c.pos <- c.at;
  c.stop <- c.at + c.len;
  let v = decode c in
  if c.pos <> c.stop then raise (Malformed ("trailing bytes in " ^ name));
  c.stop <- outer;
  v

let decode_report c =
  let mrenclave = take c in
  let mrsigner = take c in
  let debug = take_bool c in
  let mode = take_mode c in
  let xfrm = take_int c in
  let isv_prod_id = take_int c in
  let isv_svn = take_int c in
  let report_data = take c in
  let key_id = take c in
  let mac = take c in
  {
    Sgx_types.mrenclave;
    mrsigner;
    attributes = { Sgx_types.debug; mode; xfrm };
    isv_prod_id;
    isv_svn;
    report_data;
    key_id;
    mac;
  }

(* The comma-separated indices of raw[at, stop); the empty field is the
   empty selection. *)
let rec comma_from raw i stop =
  if i = stop || Bytes.get raw i = ',' then i else comma_from raw (i + 1) stop

let rec indices raw ~at ~stop =
  let comma = comma_from raw at stop in
  let index = decimal raw ~at ~len:(comma - at) "bad PCR index" in
  index :: (if comma = stop then [] else indices raw ~at:(comma + 1) ~stop)

let decode_tpm_quote c =
  let pcr_digest = take c in
  next c;
  let pcr_selection =
    if c.len = 0 then [] else indices c.raw ~at:c.at ~stop:(c.at + c.len)
  in
  let nonce = take c in
  let signature = take c in
  let aik_public = take c in
  let aik_certificate = take c in
  let ek_public = take c in
  {
    Tpm.pcr_digest;
    pcr_selection;
    nonce;
    signature;
    aik_public;
    aik_certificate;
    ek_public;
  }

let decode_event c =
  let pcr_index = take_int c in
  let label = take_string c in
  let measurement = take c in
  { Monitor.pcr_index; label; measurement }

(* [n] events in wire order: each is read before the rest. *)
let rec events c n =
  if n = 0 then []
  else
    let e = nested c decode_event "event" in
    e :: events c (n - 1)

let decode raw =
  try
    let c = { raw; pos = 0; stop = Bytes.length raw; at = 0; len = 0 } in
    next c;
    if not (spells c magic) then
      raise (Malformed ("bad magic " ^ Bytes.sub_string raw c.at c.len));
    let report = nested c decode_report "report" in
    let ems = take c in
    let hapk = take c in
    let tpm_quote = nested c decode_tpm_quote "tpm quote" in
    let n_events = take_int c in
    if n_events < 0 || n_events > 1024 then raise (Malformed "unreasonable event count");
    let events = events c n_events in
    if c.pos <> c.stop then raise (Malformed "trailing bytes in quote");
    Result.Ok { Monitor.report; ems; hapk; tpm_quote; events }
  with Malformed m -> Result.Error m
