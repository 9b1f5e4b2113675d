open Hyperenclave_hw
module Urts = Hyperenclave_sdk.Urts
module Sigma = Hyperenclave_attestation.Sigma
module Kx = Hyperenclave_crypto.Kx
module Authenc = Hyperenclave_crypto.Authenc
module Fault = Hyperenclave_fault.Fault

(* ---------------------------------------------------------------------- *)
(* Keys and frames                                                        *)

let sigma_label = "hyperenclave-serve-sigma:"
let key_label = "hyperenclave-serve-key:"
let resume_label = "hyperenclave-serve-resume:"

type key = { raw : bytes; keys : Authenc.keys }

let key raw = { raw; keys = Authenc.prepare raw }

let agree secret peer ~nonce =
  Result.map key (Sigma.agree ~label:key_label secret peer ~nonce)

(* Fixed, and last in the resumed key's input: no two pairs collide. *)
let server_nonce_bytes = 16

let resume_key raw ~client ~server =
  key (Sigma.key ~label:resume_label raw ~nonce:(Bytes.cat client server))

let resumed k ~client ~server = resume_key k.raw ~client ~server

(* Nonce [dir][0^3][seq:8]; AAD: 10-byte domain, session id, sequence
   number, ECALL id; [tag] holds a frame's tag while it is checked. *)
type scratch = { nonce : bytes; aad : bytes; tag : bytes }

let scratch () =
  {
    nonce = Bytes.make 12 '\000';
    aad = Bytes.create 34;
    tag = Bytes.create Urts.tag_bytes;
  }

let derive d ~dir ~session_id ~seq ~ecall_id =
  Bytes.set d.nonce 0 dir;
  Bytes.set_int64_le d.nonce 4 (Int64.of_int seq);
  Bytes.blit_string (if dir = '>' then "serve-req:" else "serve-rep:") 0 d.aad
    0 10;
  Bytes.set_int64_le d.aad 10 (Int64.of_int session_id);
  Bytes.set_int64_le d.aad 18 (Int64.of_int seq);
  Bytes.set_int64_le d.aad 26 (Int64.of_int ecall_id)

let seal d k ~dir ~session_id ~seq ~ecall_id src ~dst ~dst_off =
  derive d ~dir ~session_id ~seq ~ecall_id;
  let len = Bytes.length src in
  Authenc.seal_into k.keys ~aad:d.aad ~nonce:d.nonce ~src ~src_off:0 ~dst
    ~dst_off ~len;
  len + Urts.tag_bytes

let unseal d k ~dir ~session_id ~seq ~ecall_id body ~tag ~tag_off =
  derive d ~dir ~session_id ~seq ~ecall_id;
  Bytes.blit tag tag_off d.tag 0 Urts.tag_bytes;
  match
    Authenc.unseal_in_place k.keys ~aad:d.aad ~nonce:d.nonce ~tag:d.tag body
      ~off:0 ~len:(Bytes.length body)
  with
  | () -> true
  | exception Authenc.Authentication_failure -> false

(* ---------------------------------------------------------------------- *)
(* The store                                                              *)

(* A session's anti-replay window (RFC 4303 §3.4.3): [top] is one past
   the highest number the ring worker has verified, and bit [n mod width]
   of [seen] marks number [n], for every [n] in [top - width, top). *)
type window = { mutable top : int; seen : bytes }

type session = {
  key : key;
  window : window;
  owner : Urts.t;  (* the enclave whose rings may open the session *)
}

type t = {
  clock : Cycles.t;
  rng : Rng.t;
  backoff : int -> unit;
  site : string;
  batch : int;
  window_bytes : int;
  ticket_key : Authenc.keys;  (* sealing key for resumption tickets *)
  sessions : (int, session) Hashtbl.t;
  hdr : scratch;  (* nonce and AAD scratch of the ring workers *)
  unopened : key;  (* what a ring seals under before its first open *)
  mutable flush_gen : int;
  mutable sealed_in_group : int;  (* reply seals since the last setup charge *)
}

(* AES-CTR + HMAC: a fixed setup and a few cycles per byte. *)
let aead_setup_cycles = 2_000
let aead_byte_cycles = 3

let charge t ~setups ~bytes =
  Cycles.tick t.clock ((setups * aead_setup_cycles) + (aead_byte_cycles * bytes))

let key_bytes = 32

(* A window is at least [max_queue] wide, the most a tenant stages in
   one flush, and at least 1024, room for the numbers admission rejects
   burn between staged ones. *)
let create ~clock ~rng ~backoff ~site ~batch ~max_queue =
  {
    clock;
    rng;
    backoff;
    site;
    batch;
    window_bytes = (max 1024 max_queue + 7) / 8;
    ticket_key = Authenc.prepare (Rng.bytes rng key_bytes);
    sessions = Hashtbl.create 16;
    hdr = scratch ();
    unopened = key (Bytes.make key_bytes '\000');
    flush_gen = 0;
    sealed_in_group = 0;
  }

(* Every number below [top] starts seen, so a hole left before a
   migration cannot be replayed after it. *)
let open_session t ~owner ~id key ~top =
  charge t ~setups:1 ~bytes:0;
  let seen = Bytes.make t.window_bytes (if top > 0 then '\xff' else '\000') in
  Hashtbl.replace t.sessions id { key; window = { top; seen }; owner }

let close t ~id = Hashtbl.remove t.sessions id

let handshake t ~owner ~id (h : Msg.hello) =
  if not (Kx.valid_share h.client_kx) then
    (* No key could agree with it: refuse before any draw or quote. *)
    Error Sigma.Unknown_share
  else
    let tenant = Urts.mrenclave owner in
    let secret, server_kx, quote_wire =
      Fault.with_retries ~backoff:t.backoff (fun () ->
          Fault.point t.site;
          Sigma.respond t.rng ~label:sigma_label ~quote:(Urts.gen_quote owner)
            (fun server_kx -> [ h.nonce; h.client_kx; server_kx; tenant ]))
    in
    Result.map
      (fun key ->
        open_session t ~owner ~id key ~top:0;
        (server_kx, quote_wire))
      (agree secret h.client_kx ~nonce:h.nonce)

(* ---------------------------------------------------------------------- *)
(* Tickets and migration records                                          *)

(* Every ticket is sealed under this AAD; it is never stored, so a blob
   sealed for any other purpose fails the ticket's tag. *)
let ticket_aad = Bytes.of_string "serve-ticket:v1"

(* Ticket payload: [8B LE name_len][name][32B session key][8B LE expiry]. *)
let issue t ~id ~tenant ~expires =
  let key = (Hashtbl.find t.sessions id).key.raw in
  let name_len = String.length tenant in
  let payload = Bytes.create (8 + name_len + key_bytes + 8) in
  Bytes.set_int64_le payload 0 (Int64.of_int name_len);
  Bytes.blit_string tenant 0 payload 8 name_len;
  Bytes.blit key 0 payload (8 + name_len) key_bytes;
  Bytes.set_int64_le payload (8 + name_len + key_bytes) (Int64.of_int expires);
  charge t ~setups:1 ~bytes:(Bytes.length payload);
  Authenc.seal t.ticket_key ~aad:ticket_aad ~nonce:(Rng.bytes t.rng 12) payload

type ticketed = bytes

let redeem t ticket =
  charge t ~setups:1 ~bytes:(max 0 (Bytes.length ticket - Authenc.overhead));
  match Authenc.unseal t.ticket_key ~aad:ticket_aad ticket with
  | exception Authenc.Authentication_failure ->
      Error "ticket authentication failed"
  | p ->
      let n = Bytes.length p - 8 - key_bytes - 8 in
      if n < 0 || Int64.to_int (Bytes.get_int64_le p 0) <> n then
        Error "malformed ticket payload"
      else
        Ok
          ( Bytes.sub_string p 8 n,
            Int64.to_int (Bytes.get_int64_le p (8 + n + key_bytes)),
            Bytes.sub p (8 + n) key_bytes )

let resume t ~owner ~id ticketed ~nonce =
  let server = Rng.bytes t.rng server_nonce_bytes in
  open_session t ~owner ~id (resume_key ticketed ~client:nonce ~server) ~top:0;
  server

let record_bytes = 8 + key_bytes + 8

let export t ~id blob ~off =
  let s = Hashtbl.find t.sessions id in
  Bytes.set_int64_le blob off (Int64.of_int key_bytes);
  Bytes.blit s.key.raw 0 blob (off + 8) key_bytes;
  Bytes.set_int64_le blob (off + 8 + key_bytes) (Int64.of_int s.window.top)

let read_record b ~off =
  let top = Int64.to_int (Bytes.get_int64_le b (off + 8 + key_bytes)) in
  if Int64.to_int (Bytes.get_int64_le b off) <> key_bytes then Error "key"
  else if top < 0 then Error "window top"
  else Ok (key (Bytes.sub b (off + 8) key_bytes), top)

(* ---------------------------------------------------------------------- *)
(* The ring worker's callbacks                                            *)

let slot_bytes = 256

let seen w n =
  let i = n mod (8 * Bytes.length w.seen) in
  Bytes.get_uint8 w.seen (i lsr 3) land (1 lsl (i land 7)) <> 0

let mark w n ~on =
  let i = n mod (8 * Bytes.length w.seen) in
  let v = Bytes.get_uint8 w.seen (i lsr 3) and bit = 1 lsl (i land 7) in
  Bytes.set_uint8 w.seen (i lsr 3) (if on then v lor bit else v land lnot bit)

(* Admit verified number [n] once.  A number at or past the top slides
   the window up to it; one inside the window is admitted unless seen.
   A seen number, one below the window, a negative one, and [max_int]
   (whose successor would wrap the top) are refused. *)
let window_admit w n =
  let width = 8 * Bytes.length w.seen in
  if n < 0 || n = max_int then false
  else if n >= w.top then begin
    if n - w.top >= width then Bytes.fill w.seen 0 (Bytes.length w.seen) '\000'
    else
      for k = w.top to n - 1 do
        mark w k ~on:false
      done;
    w.top <- n + 1;
    mark w n ~on:true;
    true
  end
  else if n < w.top - width || seen w n then false
  else begin
    mark w n ~on:true;
    true
  end

(* A slot the worker refuses carries [refusal_bytes] as its reply: -1
   when the tag fails, the window top when the sequence number is seen or
   below the window, or minus the length of a handler reply too long for
   the slot (always below -1).  Shorter than a tag, so assembly never
   takes it for a frame. *)
let refusal_bytes = 8

let refusal n =
  let b = Bytes.create refusal_bytes in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  b

let auth_refusal = refusal (-1)

let refused buf ~off ~seq : Msg.reject =
  match Int64.to_int (Bytes.get_int64_le buf off) with
  | -1 -> Bad_auth
  | n when n < 0 ->
      Unsupported
        (Printf.sprintf "reply (%d bytes) exceeds the %d-byte ring slot" (-n)
           slot_bytes)
  | expected -> Bad_sequence { expected; got = seq }

let new_flush t =
  t.flush_gen <- t.flush_gen + 1;
  t.sealed_in_group <- 0

(* The verified claims of the slot a ring's worker opened last, and the
   keys of their session. *)
type verified = {
  mutable v_gen : int;  (* the flush it was opened in *)
  mutable v_slot : int;
  mutable v_sid : int;
  mutable v_seq : int;
  mutable v_key : key;
}

let ring t ~owner ~claim =
  let v =
    { v_gen = 0; v_slot = -1; v_sid = -1; v_seq = -1; v_key = t.unopened }
  in
  let open_slot ~slot ~ecall_id body ~tag =
    let ({ session_id = sid; seq; _ } : Msg.request) = claim slot in
    let len = Bytes.length body in
    charge t ~setups:(if slot = 0 then 1 else 0) ~bytes:len;
    match Hashtbl.find t.sessions sid with
    | exception Not_found -> Urts.Refused auth_refusal
    | s when s.owner != owner -> Urts.Refused auth_refusal
    | s ->
        if
          not
            (unseal t.hdr s.key ~dir:'>' ~session_id:sid ~seq ~ecall_id body
               ~tag ~tag_off:0)
        then Urts.Refused auth_refusal
        else begin
          charge t ~setups:0 ~bytes:len;
          let retry =
            v.v_gen = t.flush_gen && v.v_slot = slot && v.v_sid = sid
            && v.v_seq = seq
          in
          if retry || window_admit s.window seq then begin
            v.v_gen <- t.flush_gen;
            v.v_slot <- slot;
            v.v_sid <- sid;
            v.v_seq <- seq;
            v.v_key <- s.key;
            Urts.Opened
          end
          else Urts.Refused (refusal s.window.top)
        end
  in
  let seal_slot reply ~dst ~dst_off =
    let len = Bytes.length reply in
    if len > slot_bytes then begin
      Bytes.set_int64_le dst dst_off (Int64.of_int (-len));
      refusal_bytes
    end
    else begin
      charge t ~setups:(if t.sealed_in_group = 0 then 1 else 0) ~bytes:len;
      t.sealed_in_group <- (t.sealed_in_group + 1) mod t.batch;
      seal t.hdr v.v_key ~dir:'<' ~session_id:v.v_sid ~seq:v.v_seq ~ecall_id:0
        reply ~dst ~dst_off
    end
  in
  { Urts.open_slot; seal_slot }
