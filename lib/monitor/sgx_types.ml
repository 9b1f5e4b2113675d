open Hyperenclave_crypto

type operation_mode = GU | HU | P

let mode_name = function
  | GU -> "GU-Enclave"
  | HU -> "HU-Enclave"
  | P -> "P-Enclave"

let all_modes = [ GU; HU; P ]

type page_type = Pt_secs | Pt_tcs | Pt_reg | Pt_ssa

let page_type_name = function
  | Pt_secs -> "SECS"
  | Pt_tcs -> "TCS"
  | Pt_reg -> "REG"
  | Pt_ssa -> "SSA"

type attributes = { debug : bool; mode : operation_mode; xfrm : int }

type secs = {
  base_va : int;
  size : int;
  attributes : attributes;
  ssa_frame_pages : int;
}

type tcs = {
  tcs_vpn : int;
  entry_va : int;
  nssa : int;
  ssa_base_vpn : int;
  mutable busy : bool;
  mutable current_ssa : int;
}

type sigstruct = {
  enclave_hash : bytes;
  vendor_public : Signature.public_key;
  signature : bytes;
  isv_prod_id : int;
  isv_svn : int;
}

let sigstruct_body ~enclave_hash ~isv_prod_id ~isv_svn =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "sigstruct:";
  Buffer.add_bytes buf enclave_hash;
  Buffer.add_string buf (Printf.sprintf "%d:%d" isv_prod_id isv_svn);
  Buffer.to_bytes buf

let make_sigstruct ~vendor ~enclave_hash ~isv_prod_id ~isv_svn =
  let body = sigstruct_body ~enclave_hash ~isv_prod_id ~isv_svn in
  {
    enclave_hash;
    vendor_public = Signature.public_of_private vendor;
    signature = Signature.sign vendor body;
    isv_prod_id;
    isv_svn;
  }

let sigstruct_valid s =
  Signature.verify s.vendor_public
    (sigstruct_body ~enclave_hash:s.enclave_hash ~isv_prod_id:s.isv_prod_id
       ~isv_svn:s.isv_svn)
    ~signature:s.signature

let mrsigner_of s = Sha256.digest_bytes s.vendor_public

type report = {
  mrenclave : bytes;
  mrsigner : bytes;
  attributes : attributes;
  isv_prod_id : int;
  isv_svn : int;
  report_data : bytes;
  key_id : bytes;
  mac : bytes;
}

(* Decimals as [string_of_int] writes them, sized first and written in
   place: the report body and the quote codec share them.  Digits come
   off the negated value, so [min_int] needs no special case. *)
let decimal_width n =
  let rec digits m k = if m > -10 then k else digits (m / 10) (k + 1) in
  if n < 0 then digits n 2 else digits (-n) 1

let rec put_digits b i m =
  Bytes.set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits b (i - 1) (m / 10)

let put_decimal b off n =
  let stop = off + decimal_width n in
  if n < 0 then Bytes.set b off '-';
  put_digits b (stop - 1) (if n < 0 then n else -n);
  stop

let put_string b off s =
  Bytes.blit_string s 0 b off (String.length s);
  off + String.length s

let put_bytes b off d =
  Bytes.blit d 0 b off (Bytes.length d);
  off + Bytes.length d

let report_tag = "report:"
let ems_tag = "ems:"
let report_body_offset = String.length ems_tag

(* [prefix] then the body: "report:" ‖ mrenclave ‖ mrsigner ‖
   "<debug>:<mode>:<xfrm>:<isv_prod_id>:<isv_svn>" ‖ report_data ‖
   key_id, written once into a buffer of exact size. *)
let body ~prefix r =
  let debug = string_of_bool r.attributes.debug
  and mode = mode_name r.attributes.mode in
  let size =
    String.length prefix + String.length report_tag
    + Bytes.length r.mrenclave + Bytes.length r.mrsigner
    + String.length debug + String.length mode
    + decimal_width r.attributes.xfrm + decimal_width r.isv_prod_id
    + decimal_width r.isv_svn + 4
    + Bytes.length r.report_data + Bytes.length r.key_id
  in
  let b = Bytes.create size in
  let off = put_string b 0 prefix in
  let off = put_string b off report_tag in
  let off = put_bytes b off r.mrenclave in
  let off = put_bytes b off r.mrsigner in
  let off = put_string b off debug in
  Bytes.set b off ':';
  let off = put_string b (off + 1) mode in
  Bytes.set b off ':';
  let off = put_decimal b (off + 1) r.attributes.xfrm in
  Bytes.set b off ':';
  let off = put_decimal b (off + 1) r.isv_prod_id in
  Bytes.set b off ':';
  let off = put_decimal b (off + 1) r.isv_svn in
  let off = put_bytes b off r.report_data in
  ignore (put_bytes b off r.key_id : int);
  b

let report_body r = body ~prefix:"" r
let ems_body r = body ~prefix:ems_tag r

let pad_report_data data =
  let padded = Bytes.make 64 '\000' in
  Bytes.blit data 0 padded 0 (Bytes.length data);
  padded

type key_name = Seal_key_mrenclave | Seal_key_mrsigner | Report_key

let key_name_label = function
  | Seal_key_mrenclave -> "seal-mrenclave"
  | Seal_key_mrsigner -> "seal-mrsigner"
  | Report_key -> "report"

type exception_vector = Ud | Pf of { va : int; write : bool } | Gp | De

let vector_name = function
  | Ud -> "#UD"
  | Pf _ -> "#PF"
  | Gp -> "#GP"
  | De -> "#DE"
