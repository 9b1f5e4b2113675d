(* Executable specification of the serving plane's reply list.

   Given the requests one flush admitted and the tenants' handler
   function, [expected] computes the replies [Serve.flush] must return,
   in order: tenant insertion order, then session id, then sequence
   number.  Each reply is pinned to its session id, sequence number and
   body (the handler's output); [check] verifies the body through
   [Client.read_reply], which authenticates the frame's tag under the
   nonce and AAD it derives from the reply's session id and sequence
   number.  Neither travels, so a plane whose client and server agree on
   a wrong derivation would still pass here: test_serve's "channel frame
   known answer" pins the request and reply frames byte for byte. *)

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
  x_body : bytes;
}

let order a = (a.tenant_rank, a.session_id, a.seq)

let expected ~handler admitted =
  List.stable_sort (fun a b -> compare (order a) (order b)) admitted
  |> List.map (fun a ->
         {
           x_session_id = a.session_id;
           x_seq = a.seq;
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
          | Ok _ -> (
              match read_reply r with
              | Error rej ->
                  fail (Format.asprintf "read_reply: %a" Serve.pp_reject rej)
              | Ok body when not (Bytes.equal body x.x_body) ->
                  fail "body differs from the handler's output"
              | Ok _ -> go (i + 1) (xs, rs)))
  in
  go 0 (expected, replies)
