open Hyperenclave_hw
open Msg
module Urts = Hyperenclave_sdk.Urts
module Sgx_types = Hyperenclave_monitor.Sgx_types
module Verifier = Hyperenclave_attestation.Verifier
module Sigma = Hyperenclave_attestation.Sigma
module Kx = Hyperenclave_crypto.Kx
module Signature = Hyperenclave_crypto.Signature

type hs = { hs_nonce : bytes; secret : Kx.secret; hs_client_kx : Kx.public }

type t = {
  rng : Rng.t;
  golden : Verifier.golden;
  policy : Verifier.policy;
  expected_tenant : bytes option;
  expected_hapk : Signature.public_key option;
      (* pin to one node's monitor: in a fleet, golden measurements
         alone admit every honestly-booted sibling *)
  mutable hs : hs option;
  mutable session : (int * Channel.key) option;
  mutable send_seq : int;
  mutable pending_resume : (bytes * Channel.key) option;
      (* (resumption nonce, ticketed key) while a resume is in flight *)
  hdr : Channel.scratch;  (* nonce, AAD and tag scratch, one message at a time *)
}

let create ~rng ~golden ~policy ?expected_tenant ?expected_hapk () =
  {
    rng;
    golden;
    policy;
    expected_tenant;
    expected_hapk;
    hs = None;
    session = None;
    send_seq = 0;
    pending_resume = None;
    hdr = Channel.scratch ();
  }

let hello t =
  let hs_nonce = Rng.bytes t.rng 16 in
  let secret, hs_client_kx = Kx.generate t.rng in
  t.hs <- Some { hs_nonce; secret; hs_client_kx };
  t.session <- None;
  t.send_seq <- 0;
  t.pending_resume <- None;
  { nonce = hs_nonce; client_kx = hs_client_kx }

let resume_hello t ~ticket =
  match t.session with
  | None -> invalid_arg "Serve.Client.resume_hello: no session key to resume from"
  | Some (_, key) ->
      let nonce = Rng.bytes t.rng 16 in
      t.pending_resume <- Some (nonce, key);
      t.hs <- None;
      t.session <- None;
      t.send_seq <- 0;
      { r_ticket = ticket; r_nonce = nonce }

let complete_resume t (rs : resumed) =
  match t.pending_resume with
  | None -> invalid_arg "Serve.Client.complete_resume: no resume in flight"
  | Some (nonce, key) ->
      t.pending_resume <- None;
      let key = Channel.resumed key ~client:nonce ~server:rs.rs_nonce in
      t.session <- Some (rs.rs_session_id, key)

let ( let* ) = Result.bind

let establish t (accept : accept) =
  match t.hs with
  | None -> invalid_arg "Serve.Client.establish: no handshake in flight"
  | Some hs ->
      (* The quote must speak about THIS exchange: its report answers
         the transcript (nonce, both shares, the claimed tenant
         identity), checked last by the verifier.  Then the claimed
         identity against the enclave that quoted (every tenant quotes
         itself) and against the pin. *)
      let* report =
        Result.map_error of_sigma
          (Sigma.check ~golden:t.golden ~policy:t.policy
             ?expected_hapk:t.expected_hapk ~label:Channel.sigma_label
             [ hs.hs_nonce; hs.hs_client_kx; accept.server_kx;
               accept.tenant_identity ]
             accept.quote_wire)
      in
      let mismatch what =
        Error (Handshake_failed (Verifier.Policy_violation what))
      in
      if not (Bytes.equal accept.tenant_identity report.Sgx_types.mrenclave)
      then mismatch "tenant identity is not the quoted enclave"
      else if
        match t.expected_tenant with
        | Some pin -> not (Bytes.equal pin accept.tenant_identity)
        | None -> false
      then mismatch "tenant identity mismatch"
      else
        let* key =
          Result.map_error of_sigma
            (Channel.agree hs.secret accept.server_kx ~nonce:hs.hs_nonce)
        in
        t.session <- Some (accept.session_id, key);
        Ok ()

let session_id t =
  match t.session with
  | Some (id, _) -> id
  | None -> invalid_arg "Serve.Client.session_id: no session established"

let request t ~ecall data =
  match t.session with
  | None -> invalid_arg "Serve.Client.request: no session established"
  | Some (session_id, key) ->
      let seq = t.send_seq in
      t.send_seq <- seq + 1;
      let frame = Bytes.create (Bytes.length data + Urts.tag_bytes) in
      ignore
        (Channel.seal t.hdr key ~dir:'>' ~session_id ~seq ~ecall_id:ecall data
           ~dst:frame ~dst_off:0
          : int);
      { session_id; seq; ecall_id = ecall; frame }

(* The body is the only allocation: the ciphertext is copied out of the
   view into it, and [Channel.unseal] copies the tag into the scratch
   before checking either. *)
let read_reply t (reply : reply) =
  match t.session with
  | None -> invalid_arg "Serve.Client.read_reply: no session established"
  | Some (session_id, key) -> (
      if reply.r_session_id <> session_id then
        Error (Unknown_session reply.r_session_id)
      else
        match reply.r_result with
        | Error rej -> Error rej
        | Ok () ->
            let { r_image = image; r_off = off; r_len = framed; _ } = reply in
            let len = framed - Urts.tag_bytes in
            if !(reply.r_flushes) <> reply.r_flush then Error Stale_reply
            else if len < 0 || off < 0 || off > Bytes.length image - framed then
              Error Bad_auth
            else
              let body = Bytes.sub image off len in
              if
                Channel.unseal t.hdr key ~dir:'<' ~session_id ~seq:reply.r_seq
                  ~ecall_id:0 body ~tag:image ~tag_off:(off + len)
              then Ok body
              else Error Bad_auth)
