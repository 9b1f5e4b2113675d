(* Executable specification of the serving plane's reply list.

   Given the requests one flush admitted and the tenants' handler
   function, [expected] computes the replies [Serve.flush] must return,
   in order: tenant insertion order, then session id, then sequence
   number.  Each reply is pinned to its session id, sequence number,
   nonce ['<' || 0^3 || seq_le64], AAD ["serve-rep:" || sid || seq || 0]
   and body (the handler's output).  The nonce is deterministic and the
   channel key fixed per session, so nonce + AAD + body pin the
   ciphertext and tag byte for byte; [check] verifies the body through
   [Client.read_reply], which authenticates the tag against the AAD.

   The spec is independent of the plane's code: it renders nonce and AAD
   from the wire format itself, so a plane whose client and server agree
   on a wrong AAD still fails it. *)

open Hyperenclave

type admitted = {
  tenant_rank : int;  (** position of the tenant in [add_tenant] order *)
  session_id : int;
  seq : int;
  ecall : int;
  payload : bytes;
}

type expected = {
  x_session_id : int;
  x_seq : int;
  x_nonce : bytes;
  x_aad : bytes;
  x_body : bytes;
}

let nonce ~seq =
  let b = Bytes.make 12 '\000' in
  Bytes.set b 0 '<';
  Bytes.set_int64_le b 4 (Int64.of_int seq);
  b

let aad ~session_id ~seq =
  let b = Bytes.make 34 '\000' in
  Bytes.blit_string "serve-rep:" 0 b 0 10;
  Bytes.set_int64_le b 10 (Int64.of_int session_id);
  Bytes.set_int64_le b 18 (Int64.of_int seq);
  b

let order a = (a.tenant_rank, a.session_id, a.seq)

let expected ~handler admitted =
  List.stable_sort (fun a b -> compare (order a) (order b)) admitted
  |> List.map (fun a ->
         {
           x_session_id = a.session_id;
           x_seq = a.seq;
           x_nonce = nonce ~seq:a.seq;
           x_aad = aad ~session_id:a.session_id ~seq:a.seq;
           x_body = handler a.ecall a.payload;
         })

(* [read_reply] unseals a reply with the key of the session it names.
   Returns the first divergence from the spec, if any. *)
let check ~read_reply expected (replies : Serve.reply list) =
  let rec go i = function
    | [], [] -> Ok ()
    | [], _ :: _ | _ :: _, [] ->
        Error
          (Printf.sprintf "%d replies, spec expects %d" (List.length replies)
             (List.length expected))
    | x :: xs, (r : Serve.reply) :: rs -> (
        let fail what = Error (Printf.sprintf "reply %d: %s" i what) in
        if r.Serve.r_session_id <> x.x_session_id || r.Serve.r_seq <> x.x_seq
        then
          fail
            (Printf.sprintf "(session %d, seq %d), spec expects (%d, %d)"
               r.Serve.r_session_id r.Serve.r_seq x.x_session_id x.x_seq)
        else
          match r.Serve.r_result with
          | Error rej -> fail (Format.asprintf "failed: %a" Serve.pp_reject rej)
          | Ok sealed ->
              if not (Bytes.equal sealed.Crypto.Authenc.nonce x.x_nonce) then
                fail "nonce differs from the spec"
              else if not (Bytes.equal sealed.Crypto.Authenc.aad x.x_aad) then
                fail "AAD differs from the spec"
              else (
                match read_reply r with
                | Error rej ->
                    fail (Format.asprintf "read_reply: %a" Serve.pp_reject rej)
                | Ok body when not (Bytes.equal body x.x_body) ->
                    fail "body differs from the handler's output"
                | Ok _ -> go (i + 1) (xs, rs)))
  in
  go 0 (expected, replies)
