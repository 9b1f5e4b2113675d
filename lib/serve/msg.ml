(** What a serving plane and its clients say to each other: the attested
    exchange's messages, the channel's requests and replies, and the
    typed rejections either end answers with.  {!Serve} includes this
    module, so each is also [Serve.<name>].  Types and one mapping,
    documented here once: the module has no interface file. *)

(** {1 Typed rejections} *)

type reject =
  | Handshake_failed of Hyperenclave_attestation.Verifier.failure
      (** the quote did not verify (client side) *)
  | Channel_binding_mismatch
      (** the quote verifies but does not bind this transcript *)
  | Bad_wire of string
      (** wire bytes that fail a structural check: a quote that does not
          decode, or (at the plane) a hello's or resume's nonce that is
          not 16 bytes long, [Bad_wire "nonce"] *)
  | Unknown_key_share  (** the peer's key share is not a group element *)
  | Replayed_nonce  (** handshake nonce already seen by this plane *)
  | Unknown_tenant of string
  | Unknown_session of int
  | Unsupported of string
      (** the plane cannot carry this request: a ciphertext larger than a
          ring slot, or an ECALL id that is not one of the tenant's
          handlers (both at {!Serve.submit}), or a handler reply longer
          than a ring slot (in the request's reply from {!Serve.flush}:
          the handler ran, its reply is dropped, and the other slots of
          its ring are served) *)
  | Bad_auth
      (** a channel frame whose tag does not verify under the nonce and
          AAD derived from its header — the enclave's verdict, in the
          request's reply from {!Serve.flush} — or a frame shorter than a
          tag, at {!Serve.submit} *)
  | Bad_sequence of { expected : int; got : int }
      (** an authentic request whose sequence number [got] the session's
          replay window ({!Channel.create}) has already seen or has left
          behind; [expected] is the window top, one past the highest
          number the enclave has verified.  Only in a reply from
          {!Serve.flush} *)
  | Backpressure of { tenant : string; queued : int; limit : int }
  | Quota_exhausted of { tenant : string; spent : int; quota : int }
  | Session_fault of string
      (** a permanent fault surfaced as a typed session error *)
  | Bad_ticket of string
      (** a resumption ticket that failed authentication (damaged,
          truncated, sealed elsewhere or for another purpose), or whose
          authentic payload is malformed *)
  | Ticket_expired  (** a well-formed ticket past its TTL *)
  | Session_migrated of { to_node : int }
      (** the session moved to another node after cutover — re-resolve
          and resubmit there *)
  | Tenant_migrated of { tenant : string; to_node : int }
      (** the tenant no longer lives here; handshakes and resumes must
          go to [to_node] *)
  | Tenant_busy of { tenant : string; staged : int }
      (** export/retire refused: admitted requests are still staged —
          flush first *)
  | Import_conflict of string
      (** a migration blob that cannot install: malformed bytes, identity
          mismatch, live session-id collision, or state exceeding the
          stride *)
  | Stale_reply
      (** (client side) a served reply read after its plane flushed
          again, when its frame may have been overwritten: see {!reply} *)

(** The attested exchange's refusals as the plane and its clients name
    them. *)
let of_sigma : Hyperenclave_attestation.Sigma.failure -> reject = function
  | Bad_wire m -> Bad_wire m
  | Unbound -> Channel_binding_mismatch
  | Refused f -> Handshake_failed f
  | Unknown_share -> Unknown_key_share

(** {1 Wire messages} *)

type hello = {
  nonce : bytes;
      (** 16 fresh bytes; the plane refuses any other length as
          [Bad_wire "nonce"] before its replay cache sees it *)
  client_kx : Hyperenclave_crypto.Kx.public;
}

type accept = {
  session_id : int;
  node_id : int;
      (** which fleet node accepted — clients route follow-ups there *)
  server_kx : Hyperenclave_crypto.Kx.public;
  quote_wire : bytes;  (** untrusted bytes until the client verifies *)
  tenant_identity : bytes;
      (** the tenant MRENCLAVE bound into the transcript; the client
          refuses it unless it equals the quote's MRENCLAVE *)
}

type request = {
  session_id : int;
  seq : int;
  ecall_id : int;
  frame : bytes;  (** ciphertext, then its 32-byte tag *)
}

(** A request's answer from [Serve.flush].  A served reply's frame is
    not copied: it is read where the ring left it, in the reply image
    of the ring that served the request ([Urts.ring_reply_buf]).

    {b Lifetime.}  That image is rewritten only when its ring dispatches
    again, in a later flush of the same plane (an image that grows is a
    new buffer, and the old one keeps its bytes).  So a served reply is
    readable until its plane's next flush: every reply carries the
    plane's flush counter and the flush it came from, and
    [Client.read_reply] refuses a reply read later as {!Stale_reply},
    never reading another request's bytes.  To keep a frame longer,
    copy [r_len] bytes of [r_image] from [r_off] before the next
    flush. *)
type reply = {
  r_session_id : int;
  r_seq : int;
  r_result : (unit, reject) result;
      (** [Ok ()]: the enclave sealed a reply, whose frame (ciphertext,
          then its 32-byte tag) is the view below; or the typed
          server-side failure, with an empty view *)
  r_image : bytes;  (** the served ring's reply image, borrowed *)
  r_off : int;  (** where the frame starts in [r_image] *)
  r_len : int;  (** the frame's length *)
  r_flushes : int ref;  (** the plane's flush counter *)
  r_flush : int;  (** its value in the flush that answered *)
}

type resume = { r_ticket : bytes; r_nonce : bytes }
(** A resumption: a ticket from [Serve.issue_ticket] and the client's
    fresh 16-byte nonce (any other length is [Bad_wire "nonce"], and
    the replay cache never sees it). *)

type resumed = { rs_session_id : int; rs_nonce : bytes }
(** The plane's answer to a {!resume}, as an {!accept} answers a hello:
    the new session's id and the server's fresh 16-byte nonce, which the
    resumed key takes after the client's. *)
