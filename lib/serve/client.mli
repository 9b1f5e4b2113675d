(** A relying party of the serving plane: it attests a tenant enclave
    through the plane's handshake, then seals requests and opens replies
    through {!Channel}.  {!Serve.Client} is this module plus
    [roundtrip]. *)

open Hyperenclave_hw
open Msg
module Verifier := Hyperenclave_attestation.Verifier
module Signature := Hyperenclave_crypto.Signature

type t

val create :
  rng:Rng.t ->
  golden:Verifier.golden ->
  policy:Verifier.policy ->
  ?expected_tenant:bytes ->
  ?expected_hapk:Signature.public_key ->
  unit ->
  t
(** A relying party: golden boot measurements, enclave policy, and
    optionally the tenant identity to pin ([expected_tenant]).  With
    or without a pin, the transcript's claimed identity must be the
    quoted enclave's MRENCLAVE.  [expected_hapk] pins the {e node}: in
    a fleet every monitor boots the same golden measurements, so a
    client that knows which node it addressed pins that node's monitor
    key and gets {!Handshake_failed} ({!Verifier.Hapk_mismatch}) from
    any sibling. *)

val hello : t -> hello
(** Fresh nonce + ephemeral share.  One client drives one session;
    calling it again restarts with fresh material. *)

val establish : t -> accept -> (unit, reject) result
(** Decode + verify the quote with the transcript as the expected
    [report_data] ({!Hyperenclave_attestation.Sigma.check}: a wire
    that does not decode is {!Bad_wire}; a quote that answers another
    transcript — a replayed accept, a spliced key share — is
    {!Channel_binding_mismatch}; any other verifier failure is
    {!Handshake_failed}), check the claimed tenant identity against
    the quote and the pin ({!Handshake_failed} with a policy
    violation), agree on the server's share ({!Unknown_key_share} if
    it is no group element) and derive the session key, its AEAD keys
    prepared here once per session ({!Channel.agree}). *)

val resume_hello : t -> ticket:bytes -> resume
(** Start a resumption from the current session's key and a ticket
    previously issued for it: fresh nonce, sequence reset.  The old
    session becomes unusable on this client.
    @raise Invalid_argument without an established session. *)

val complete_resume : t -> resumed -> unit
(** Accept the plane's {!Serve.resume} answer: derive and prepare the
    resumed channel key from the ticketed key, this client's nonce and
    the answer's server nonce ({!Channel.resumed}), and switch to the
    answer's session.
    @raise Invalid_argument without a {!resume_hello} in flight. *)

val session_id : t -> int
(** @raise Invalid_argument before a session is established. *)

val request : t -> ecall:int -> bytes -> request
(** Seal the payload into a frame ({!Channel.seal}) with the next
    sequence number: one CTR pass and one MAC, no key setup. *)

val read_reply : t -> reply -> (bytes, reject) result
(** Copy a served reply's ciphertext out of its view into the body it
    returns and open it there ({!Channel.unseal}, which copies the tag
    into the client's scratch before checking either), or surface its
    typed server-side failure.  The body is its only allocation.  A
    served reply read after its plane's next flush is {!Stale_reply}
    (its frame may have been overwritten: see {!Msg.reply}); a tag that
    fails, a frame shorter than a tag or a view outside its image is
    {!Bad_auth}.  It never raises on a malformed reply. *)

