(** The attested key exchange (PAPER.md, "Attestation — SIGMA-style").

    The serving plane's handshake and the fleet's migration run one
    protocol: a nonce and Kx shares are exchanged, an enclave quotes a
    transcript of them, the peer checks that quote, and both ends derive
    one key from the shared secret.  Each protocol keeps its own message
    order, fields and labels — the plane's client speaks first and the
    quote covers both shares and the tenant identity; the migration's
    destination speaks first and its quote covers its own share, the
    tenant and the route.  This module owns what they share: how the
    fields are framed, how a peer's quote is decoded and verified, and
    how the key is derived.

    The key derivation is a labelled SHA-256, not HKDF: the keys it
    derives protect bytes that travel between nodes of different builds
    (request frames, sealed migration packages), so it stays as it is
    for wire compatibility (DESIGN.md §7). *)

open Hyperenclave_crypto
open Hyperenclave_monitor

type failure =
  | Bad_wire of string  (** the peer's quote does not decode *)
  | Unbound
      (** the quote verifies but its report answers another transcript:
          a replayed or spliced quote *)
  | Refused of Verifier.failure  (** any other verifier failure *)
  | Unknown_share  (** the peer's Kx share is no group element *)

val transcript : label:string -> bytes list -> bytes
(** SHA-256 over [label], then each field as its u64 little-endian
    length and its bytes: distinct field lists never collide by
    concatenation.  This is the [report_data] a quote binds. *)

val key : label:string -> bytes -> nonce:bytes -> bytes
(** [key ~label secret ~nonce] is SHA-256 over [label ‖ secret ‖ nonce]:
    the 32-byte key of an agreed secret ({!agree}), or of a ticketed key
    resumed under both parties' nonces, the client's then the server's
    fixed-length one. *)

val respond :
  Hyperenclave_hw.Rng.t ->
  label:string ->
  quote:(report_data:bytes -> Monitor.quote) ->
  (Kx.public -> bytes list) ->
  Kx.secret * Kx.public * bytes
(** The quoting side: draw a Kx share from the RNG, then quote the
    transcript of the fields built around that share.  Returns the
    share's secret, the share and the quote's wire form. *)

val check :
  golden:Verifier.golden ->
  policy:Verifier.policy ->
  ?expected_hapk:Signature.public_key ->
  label:string ->
  bytes list ->
  bytes ->
  (Sgx_types.report, failure) result
(** The relying side: decode the peer's quote wire, then
    {!Verifier.verify} it with the transcript of [fields] as the
    expected [report_data].  A report answering any other transcript is
    {!Unbound}. *)

val agree :
  label:string -> Kx.secret -> Kx.public -> nonce:bytes -> (bytes, failure) result
(** Agree with the peer's share and derive the exchange key from the
    shared secret and [nonce] ({!key}). *)
