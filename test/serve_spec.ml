(* Executable specification of the serving plane's reply list.

   Given the requests one flush admitted, each with the outcome it must
   get, [check] verifies the replies [Serve.flush] returned, in order:
   tenant insertion order, then session id, then admission order.  Each
   reply is pinned to its session id, sequence number and outcome.  A
   served body is verified through [Client.read_reply], which
   authenticates the frame's tag under the nonce and AAD it derives from
   the reply's session id and sequence number.  Neither travels, so a
   plane whose client and server agree on a wrong derivation would still
   pass here: test_serve's "channel frame known answer" pins the request
   and reply frames byte for byte. *)

open Hyperenclave

type outcome =
  | Served of bytes  (** the handler's output *)
  | Refused of string  (** a typed reject, by its label *)
  | Copy of bytes
      (** one of several copies of one request in the flush: exactly one
          copy is served with this body, and every other is
          bad-sequence *)

type admitted = {
  tenant_rank : int;  (** position of the tenant in [add_tenant] order *)
  session_id : int;
  seq : int;
  outcome : outcome;
}

(* [read_reply] unseals a reply with the key of the session it names.
   Returns the first divergence from the spec, if any. *)
let check ~read_reply admitted (replies : Serve.reply list) =
  let expected =
    List.stable_sort
      (fun a b -> compare (a.tenant_rank, a.session_id) (b.tenant_rank, b.session_id))
      admitted
  in
  let served_copies = Hashtbl.create 8 in
  let rec go i = function
    | [], [] -> Ok ()
    | [], _ :: _ | _ :: _, [] ->
        Error
          (Printf.sprintf "%d replies, spec expects %d" (List.length replies)
             (List.length expected))
    | x :: xs, (r : Serve.reply) :: rs -> (
        let fail what = Error (Printf.sprintf "reply %d: %s" i what) in
        let served body =
          match read_reply r with
          | Error rej -> fail (Format.asprintf "read_reply: %a" Serve.pp_reject rej)
          | Ok got when not (Bytes.equal got body) ->
              fail "body differs from the handler's output"
          | Ok _ -> go (i + 1) (xs, rs)
        in
        if r.Serve.r_session_id <> x.session_id || r.Serve.r_seq <> x.seq then
          fail
            (Printf.sprintf "(session %d, seq %d), spec expects (%d, %d)"
               r.Serve.r_session_id r.Serve.r_seq x.session_id x.seq)
        else
          match (x.outcome, r.Serve.r_result) with
          | Served body, Ok _ -> served body
          | Copy body, Ok _ ->
              let key = (x.session_id, x.seq) in
              if Hashtbl.mem served_copies key then fail "a second copy served"
              else begin
                Hashtbl.replace served_copies key ();
                served body
              end
          | Copy _, Error (Serve.Bad_sequence _) -> go (i + 1) (xs, rs)
          | Refused label, Error rej when Serve.reject_name rej = label ->
              go (i + 1) (xs, rs)
          | Refused label, Ok _ -> fail ("served, spec expects " ^ label)
          | (Served _ | Copy _ | Refused _), Error rej ->
              fail (Format.asprintf "failed: %a" Serve.pp_reject rej))
  in
  let copies =
    List.sort_uniq compare
      (List.filter_map
         (fun a ->
           match a.outcome with
           | Copy _ -> Some (a.session_id, a.seq)
           | Served _ | Refused _ -> None)
         admitted)
  in
  Result.bind (go 0 (expected, replies)) (fun () ->
      match List.find_opt (fun k -> not (Hashtbl.mem served_copies k)) copies with
      | Some (sid, seq) ->
          Error (Printf.sprintf "no copy of (session %d, seq %d) served" sid seq)
      | None -> Ok ())
