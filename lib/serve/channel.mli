(** The enclave's half of the serving plane's attested channel, and the
    only module of the plane that names {!Hyperenclave_crypto.Authenc}.

    One store per plane holds every session's key, prepared keys and
    anti-replay window by session id, runs the server's side of the
    attested exchange, seals and opens resumption tickets, carries each
    session's key and window top across a migration, and opens and seals
    ring slots for the in-enclave worker.  The plane reaches it by
    session id; a key it passes on, from a ticket or a migration record,
    is abstract.

    {2 Channel frames}

    Every request and reply travels as one frame: the ciphertext
    followed by its 32-byte tag.  The nonce and the AAD never travel.
    Every end derives them from the message's header into scratch it
    owns — the client and the ring's in-enclave worker: the nonce is
    [dir][0^3][seq] (dir ['>'] on requests, ['<'] on replies) and the
    AAD is ["serve-req:"] or ["serve-rep:"], then session id, sequence
    number and ECALL id (0 on replies), integers as 64-bit
    little-endian.  A lie in any header field therefore fails the tag.

    {2 Session resumption}

    A {e ticket} is a session's key, tenant name and expiry sealed under
    the store's ticket key.  Presented with the client's fresh nonce it
    opens a new session for one AEAD unseal, skipping the quote, and the
    store draws a fresh nonce of its own ({!resume}).  Both sides derive
    the new key from the ticketed key and both nonces ({!resumed}), so
    the ticketed key never carries traffic, and a replayed resumption
    opens at most a session under a key that nobody holds.

    {2 Prices}

    AEAD work ticks the store's clock: 2,000 cycles per key setup and 3
    per byte.  Opening a session pays a setup; a ticket's seal and
    unseal each pay a setup and the payload's bytes; a ring slot pays
    its ciphertext's MAC and decrypt and its reply's seal per byte, plus
    one setup per (ring, flush) on the ring's first slot and one per
    [batch] replies sealed in a flush. *)

open Hyperenclave_hw
module Urts := Hyperenclave_sdk.Urts
module Kx := Hyperenclave_crypto.Kx
module Sigma := Hyperenclave_attestation.Sigma

(** {1 Keys and frames} *)

val sigma_label : string
(** The exchange's transcript label: nonce, client share, server share,
    tenant MRENCLAVE. *)

type key
(** A session key with its AEAD keys, prepared once (HKDF split, AES
    schedule, HMAC pads). *)

val agree : Kx.secret -> Kx.public -> nonce:bytes -> (key, Sigma.failure) result
(** A handshake's session key, on either end. *)

val resumed : key -> client:bytes -> server:bytes -> key
(** The key of a session resumed from a ticket for [key]:
    {!Hyperenclave_attestation.Sigma.key} over the ticketed key and
    [client ‖ server].  The server's nonce has a fixed length and comes
    last, so the input is unambiguous. *)

type scratch  (** one end's nonce, AAD and tag scratch *)

val scratch : unit -> scratch

val seal :
  scratch -> key -> dir:char -> session_id:int -> seq:int -> ecall_id:int ->
  bytes -> dst:bytes -> dst_off:int -> int
(** Write the frame of the payload at [dst_off]; returns its length.
    Allocates nothing. *)

val unseal :
  scratch -> key -> dir:char -> session_id:int -> seq:int -> ecall_id:int ->
  bytes -> tag:bytes -> tag_off:int -> bool
(** Check the buffer, a frame's ciphertext, against the tag at
    [tag_off] and decrypt it in place; [false], the buffer untouched, if
    the tag fails.  Allocates nothing. *)

(** {1 The store} *)

type t

val create :
  clock:Cycles.t -> rng:Rng.t -> backoff:(int -> unit) -> site:string ->
  batch:int -> max_queue:int -> t
(** Draws the ticket key from [rng].  Windows are [max 1024 max_queue]
    numbers wide (rounded up to a multiple of 8), so a session's
    requests may run in any order within one flush. *)

val handshake :
  t -> owner:Urts.t -> id:int -> Msg.hello ->
  (Kx.public * bytes, Sigma.failure) result
(** Refuse a share that is no group element before any draw; then, in a
    transient-fault retry over [site], draw the server's share and have
    the enclave [owner] quote the transcript; open session [id] under
    the agreed key.  Returns the server share and the quote wire.
    @raise Hyperenclave_fault.Fault.Injected when the retry gives up. *)

val open_session : t -> owner:Urts.t -> id:int -> key -> top:int -> unit
(** Open session [id] for the enclave [owner]: one key setup, and a
    window whose numbers below [top] count as seen. *)

val close : t -> id:int -> unit

val issue : t -> id:int -> tenant:string -> expires:int -> bytes
(** The ticket of session [id]: [(tenant, key, expires)] sealed under
    the ticket key and AAD ["serve-ticket:v1"], payload + 44 bytes. *)

type ticketed  (** the session key a ticket carries *)

val redeem : t -> bytes -> (string * int * ticketed, string) result
(** A ticket's tenant, expiry and ticketed key; or why the ticket is
    refused.  Draws nothing. *)

val resume : t -> owner:Urts.t -> id:int -> ticketed -> nonce:bytes -> bytes
(** Draw a 16-byte server nonce from the store's RNG and open session
    [id] for [owner] ({!open_session}) under the key resumed from the
    ticketed key with the client's [nonce] and that server nonce
    ({!resumed}); returns the server nonce. *)

val record_bytes : int
(** 48: a session's key-carrying migration fields,
    [[32:8][key:32][window top:8]] (u64 LE). *)

val export : t -> id:int -> bytes -> off:int -> unit
val read_record : bytes -> off:int -> (key * int, string) result
(** The key and window top, or the malformed field's name. *)

(** {1 The ring worker} *)

val slot_bytes : int
(** 256: the most plaintext a slot's frame carries. *)

val new_flush : t -> unit
(** The reply-seal group restarts, and no slot opened before is a
    retry. *)

val ring : t -> owner:Urts.t -> claim:(int -> Msg.request) -> Urts.channel
(** The callbacks of a ring of [owner]'s, [claim slot] being the request
    staged in the slot.  [open_slot] takes the claimed session's keys if
    [owner] holds it, authenticates and decrypts in place, and only then
    admits the number into the window; a slot failing either check is
    refused and runs no handler.  [seal_slot] seals the reply under the
    claims and keys the open verified, or refuses one longer than
    {!slot_bytes}.  A transient-fault retry re-opens the slot opened
    last, in the same flush, with the same claims. *)

val refusal_bytes : int
(** 8: a refused slot's reply, shorter than a tag. *)

val refused : bytes -> off:int -> seq:int -> Msg.reject
(** The reject a refused slot's reply carries: [Bad_auth],
    [Bad_sequence] (the window top) or [Unsupported] (a reply too long
    for the slot). *)
