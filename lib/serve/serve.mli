(** Multi-tenant attested serving plane.

    The end-to-end path from an untrusted client to an enclave that the
    rest of the stack was missing: a client proves who it is talking to
    with the paper's attestation chain (Sec. 5 — TPM quote over the
    measured boot + hapk binding, monitor-signed ems), agrees on a
    per-session channel key, and then submits encrypted requests that
    the plane routes, still encrypted, into the SMP scheduler as
    slot-ring batches; the in-enclave ring worker checks each one's tag
    and freshness, decrypts it and seals its reply over the same
    channel.

    {2 Channel frames}

    Every request and reply travels as one frame: the ciphertext
    followed by its 32-byte tag.  The nonce and the AAD never travel.
    Every end derives them from the message's header into scratch it
    owns — the client and the ring's in-enclave worker:
    the nonce is [dir][0^3][seq] (dir ['>'] on requests, ['<'] on
    replies) and the AAD is ["serve-req:"] or ["serve-rep:"], then
    session id, sequence number and ECALL id (0 on replies), integers
    as 64-bit little-endian.  A lie in any header field therefore fails
    the tag.

    {2 Handshake (SIGMA-style)}

    The plane's run of the attested key exchange
    {!Hyperenclave_attestation.Sigma}, which fleet migrations share:

    + the client sends a fresh nonce and an ephemeral {!Kx} share;
    + the plane generates its own share, derives the session key, and
      answers with a wire-encoded HyperEnclave quote whose [report_data]
      is the {!Hyperenclave_attestation.Sigma.transcript} of nonce,
      both shares and the tenant's enclave identity — so the key
      exchange is authenticated by the attestation chain and cannot be
      spliced across sessions;
    + the client decodes the quote on untrusted bytes, verifies it with
      that transcript as the expected [report_data]
      ({!Hyperenclave_attestation.Sigma.check}), and derives the same
      key ({!Hyperenclave_attestation.Sigma.agree}).

    The quote's TPM half is the platform quote the monitor took at
    boot; the transcript in the monitor-signed report is what makes it
    fresh, so a handshake runs no TPM command.

    Every tenant is a HyperEnclave enclave and quotes {e itself}: the
    monitor signs the tenant's own report, so the identity in the
    transcript is the quoted MRENCLAVE.  The native and SGX-model
    baselines ({!Hyperenclave_tee.Backend.native},
    {!Hyperenclave_tee.Backend.sgx}) have no such report and no slot
    ring; they are measured through {!Hyperenclave_tee.Backend}, not
    served here.

    {2 Serving}

    Admission control is typed and per-tenant, and looks at headers and
    lengths only: a live session, a frame that fits a slot
    ({!Unsupported}) and holds a tag ({!Bad_auth}), the tenant's own
    request ECALLs ({!Unsupported}), bounded queues ({!Backpressure})
    and cycle quotas charged from the scheduler's per-slice deltas
    ({!Quota_exhausted}).  Admission holds no key and no sequence
    state.  {!flush} drains every admitted request through
    {!Hyperenclave_sched.Sched}; inside the enclave the ring worker
    authenticates each request ({!Bad_auth}) and checks its freshness
    ({!Bad_sequence}) before its handler runs, and seals the replies.

    Session work crosses the ["serve.session"] fault-injection site:
    transient faults are absorbed by the SDK's bounded retry/backoff,
    permanent ones surface as typed {!Session_fault} errors — never as
    an escaped exception, and always with the monitor invariants green.

    {2 Session lifecycle}

    A session is one attested channel: an id, a key, the anti-replay
    window the enclave keeps over its request sequence numbers, and a
    slot in the tenant enclave's heap — a
    {!state_stride_pages}-page EDMM region, of which it has committed
    some pages through the reserved state ECALLs (0x5e55-0x5e57).
    {!handshake}, {!val-resume} and {!import_tenant} open sessions the
    same way; {!close_session}, {!retire_tenant} and an import rollback
    retire them the same way: staged requests die and the state slot is
    recycled for the tenant's next session.

    {2 Fleet}

    A plane is one {e node} of a fleet: it is created with an explicit
    {!identity} (node id, monitor hapk) and every session it opens is
    stamped with that identity.  Tenants and their live sessions can
    move between nodes — {!export_tenant} packs sessions (keys, window
    tops, committed EDMM pages) and the nonces burnt for the tenant into
    one opaque blob, {!import_tenant} rebuilds them from it on a
    destination whose tenant enclave measures identically, and
    {!retire_tenant} cuts the source over so stragglers get typed
    forwards ({!Session_migrated} / {!Tenant_migrated}) instead of bare
    unknown-id errors.  The plane owns the blob's format; the cluster
    layer ({!Hyperenclave_cluster.Cluster}) seals it and drives the
    attested transfer protocol. *)

open Hyperenclave_hw
open Hyperenclave_tee
module Verifier := Hyperenclave_attestation.Verifier
module Kx := Hyperenclave_crypto.Kx
module Authenc := Hyperenclave_crypto.Authenc
module Signature := Hyperenclave_crypto.Signature
module Monitor := Hyperenclave_monitor.Monitor

(** {1 Typed rejections} *)

type reject =
  | Handshake_failed of Verifier.failure
      (** the quote did not verify (client side) *)
  | Channel_binding_mismatch
      (** the quote verifies but does not bind this transcript *)
  | Bad_wire of string  (** quote wire bytes failed structural decode *)
  | Unknown_key_share  (** the peer's {!Kx} share is not a group element *)
  | Replayed_nonce  (** handshake nonce already seen by this plane *)
  | Unknown_tenant of string
  | Unknown_session of int
  | Unsupported of string
      (** the plane cannot carry this request: a ciphertext larger than a
          ring slot, or an ECALL id that is not one of the tenant's
          handlers (both at {!submit}), or a handler reply longer than a
          ring slot (in the request's reply from {!flush}: the handler
          ran, its reply is dropped, and the other slots of its ring are
          served) *)
  | Bad_auth
      (** a channel frame whose tag does not verify under the nonce and
          AAD derived from its header — the enclave's verdict, in the
          request's reply from {!flush} — or a frame shorter than a tag,
          at {!submit} *)
  | Bad_sequence of { expected : int; got : int }
      (** an authentic request whose sequence number [got] the session's
          replay window has already seen or has left behind; [expected]
          is the window top, one past the highest number the enclave has
          verified.  The window is [max 1024 max_queue] numbers wide (rounded
          up to a multiple of 8), so
          a session's requests may run in any order within one flush.
          Only in a reply from {!flush} *)
  | Backpressure of { tenant : string; queued : int; limit : int }
  | Quota_exhausted of { tenant : string; spent : int; quota : int }
  | Session_fault of string
      (** a permanent fault surfaced as a typed session error *)
  | Bad_ticket of string
      (** a resumption ticket that failed authentication under the
          plane's ticket key and ticket AAD (damaged, truncated, sealed
          elsewhere or for another purpose), or whose authentic payload
          is malformed *)
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

val reject_name : reject -> string
(** Short stable label, also the telemetry suffix ([serve.reject.<name>]). *)

val pp_reject : Format.formatter -> reject -> unit

(** {1 The plane} *)

type config = {
  sched : Hyperenclave_sched.Sched.config;
      (** scheduler for enclave-backed tenants; [drop_on_error] is
          forced on so injected permanent faults drain as typed
          failures instead of aborting the plane.  [batch], in
          [[1, 16]], is read by {!flush} only: the number of sealed
          replies that share one AEAD setup charge *)
  max_queue : int;  (** per-tenant bound on admitted-but-unflushed requests *)
  cycle_quota : int option;
      (** initial per-tenant cycle budget ([None] = unmetered); spent
          cycles come from scheduler slice deltas — the tenant's handlers
          and the channel crypto its ring workers run — and are
          replenished with {!grant} *)
  nonce_cache : int;
      (** replay-cache bound: only the most recent [nonce_cache]
          handshake / resumption nonces are remembered (FIFO eviction),
          so session churn cannot grow the table without limit *)
  ticket_ttl : int;
      (** resumption-ticket lifetime in shared-clock cycles *)
}

val default_config : config
(** 2 cores (scheduler defaults with [drop_on_error]), 64-request
    queues, unmetered quotas, 1024-nonce replay cache, 1e9-cycle ticket
    TTL. *)

val state_stride_pages : int
(** 16: the per-session EDMM state region, in pages — the bound on
    {!resize_session} and on a migrated session's pages. *)

val slot_bytes : int
(** 256: ring slot payload capacity; an admission whose ciphertext
    exceeds it is refused with {!Unsupported}, and a handler reply must
    fit in it.  Each slot also keeps 32 bytes for the reply tag. *)

(** {1 Node identity}

    Every plane speaks as one addressable node of a fleet.  The identity
    is explicit — callers thread it rather than the plane silently
    reading it off the platform — so each quote-verification decision in
    the system names its trust anchor. *)

type identity = {
  node_id : int;  (** fleet-unique address; 0 for the single-node case *)
  hapk : Signature.public_key;
      (** the monitor attestation key that signs this node's quotes *)
}

module Node_config : sig
  type serve_config := config

  type t = { identity : identity; serve : serve_config }

  val v : ?node_id:int -> platform:Platform.t -> serve_config -> t
  (** The platform monitor's hapk as the identity; [node_id] defaults to
      [0]. *)
end

type t

val create_node : platform:Platform.t -> Node_config.t -> t
(** Build a serving plane that answers as [identity.node_id].  Session
    ids are node-prefixed so they stay distinct across a fleet and a
    migrated session keeps its id on the destination.
    @raise Invalid_argument on invalid configuration, or when the
    identity's hapk is not this platform's monitor key — a plane must
    not advertise an identity its own monitor cannot back. *)

val identity : t -> identity

val node_quote : t -> report_data:bytes -> Monitor.quote
(** A quote from the plane's quoting enclave, signed by this node's
    monitor — the node's own attestation voice, used by the migration
    protocol to prove a destination before sealed state is shipped.
    The challenger's freshness goes in [report_data]; the TPM quote
    inside is the one the node's monitor took at boot. *)

val add_tenant : t -> name:string -> Backend.config -> Backend.t
(** Build the tenant's backend on the plane's platform ({!Backend.create}
    with the plane's reserved session-state ECALLs appended) and register
    it.  The returned backend is the tenant's own handle — for loading
    data and direct calls; the plane owns its teardown.  Clients may
    address only the config's own [handlers] ({!submit}).
    @raise Invalid_argument, registering nothing, when [kind] is not
    [Hyperenclave _] (the native and SGX-model baselines cannot quote
    themselves or ring), on a duplicate name, or on a handler colliding
    with a reserved ECALL id. *)

val state_ecall : int
(** The reserved ECALL id behind {!resize_session}. *)

val quoting_identity : t -> bytes
(** MRENCLAVE of the plane's quoting enclave, the enclave behind
    {!node_quote} (created on first use) — what a migration peer pins as
    this node's anchor.  Tenant handshakes never use it. *)

(** {1 Wire messages} *)

type hello = { nonce : bytes; client_kx : Kx.public }

type accept = {
  session_id : int;
  node_id : int;
      (** which fleet node accepted — clients route follow-ups there *)
  server_kx : Kx.public;
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

type reply = {
  r_session_id : int;
  r_seq : int;
  r_result : (bytes, reject) result;
      (** the reply frame, copied out of its ring slot once, or the typed
          server-side failure *)
}

(** {1 Server operations} *)

val handshake : t -> tenant:string -> hello -> (accept, reject) result
(** Burn the hello's nonce ({!Replayed_nonce} if seen), have the tenant
    enclave quote the transcript (a fresh EREPORT and ems over it,
    paired with the platform quote from boot: no TPM command), derive
    the session key and open a session.  Counters: [serve.handshake] /
    [serve.handshake_rejected]. *)

val submit : t -> request -> (unit, reject) result
(** Admit one request, in this order: a live session; a frame at least
    a tag long ({!Bad_auth}) whose ciphertext fits {!slot_bytes}
    ({!Unsupported}); the ["serve.session"] fault site; the ECALL check
    ({!Unsupported} unless [ecall_id] is one of the tenant's handlers,
    never a reserved id, 0x5e55-0x5e57); the per-tenant queue bound and the
    per-tenant cycle quota.  Admission uses no key, no MAC and no
    sequence number and charges no cycles for crypto, so a forged,
    tampered, replayed or misaddressed frame is admitted here and
    refused by the enclave in its {!flush} reply; a rejection here
    leaves no trace in the session. *)

val flush : t -> reply list
(** Drain every admitted request: copy each whole frame, ciphertext and
    tag, into a slot of a per-shard marshalling-buffer ring (one shard
    per scheduler core) and dispatch the rings switchlessly through the
    scheduler.  The block rotor picks each run of requests' shard, and
    shard [k]'s ring is owned by core [k mod cores]: the owner publishes
    the ring, serves its slots from the head and reads its reply image
    back ({!Hyperenclave_sdk.Urts.ring_dispatch}), so no marshalling
    leg runs on the plane's clock, and a core with no slot of its own
    left joins the ring and serves slots from the tail
    ({!Hyperenclave_sched.Sched.submit_ring}).  On the cores that serve
    a ring's slots, its in-enclave workers copy each slot's ciphertext
    and tag into private buffers, derive the nonce and AAD from the
    slot's claims (its id word, and the session id and sequence number
    of the request staged there), authenticate and decrypt, admit the
    number into the session's replay window, run the handler, and seal
    the reply into the reply slot as a frame under the verified claims
    ({!Hyperenclave_sdk.Urts.channel}); the plane then copies each reply
    frame out once.  So the shared segments carry no plaintext, and the
    channel crypto runs on the cores' clocks, not the plane's.  A slot
    that fails either check runs no handler: its reply is {!Bad_auth}
    or {!Bad_sequence}, and the ring's other slots are served.  A ring
    whose dispatch fails answers every request it carried with a typed
    {!Session_fault}.  [config.sched.batch] sets how many sealed replies
    share one AEAD setup charge, counted across the flush.  Tenant
    quotas are charged from the dispatch cycles, which include the
    channel crypto and the ring's marshalling legs.  Replies come in tenant insertion order, then
    session id, then admission order (sequence order, for an honest
    client).  Each flush adds one entry to the {!ledger}.

    An exception that escapes — a handler raising something the
    scheduler does not turn into a typed failure, or a monitor
    violation — aborts the flush: every staged request of every tenant
    is dropped unanswered (the next flush does not run it, and no tenant
    stays {!Tenant_busy}), no ledger entry is added, and the exception
    is re-raised. *)

type ledger = {
  flushes : int;
  served : int;  (** replies sealed [Ok] *)
  serial_cycles : int;
      (** plane work no core clock sees: platform cycles inside {!submit}
          since the previous flush, plus the {!flush} cycles outside every
          scheduler slice *)
  busy_cycles : int;  (** scheduler slice cycles, summed over cores *)
  slowest_cycles : int;  (** per flush, the largest core clock advance *)
  critical_cycles : int;
      (** per flush, serial + slowest: the cores run in parallel, so this
          is how long the round takes *)
}
(** The plane's critical-path ledger: cumulative sums over every {!flush}
    so far.  On each flush, serial + busy equals the platform-clock
    advance over its submits and the flush itself.  A core clock also
    advances outside slices — join and claim charges
    ({!Hyperenclave_sched.Sched}), which the platform clock never sees —
    so the slowest advance can exceed its busy share.
    [served * clock_hz / critical_cycles] is the attested rate. *)

val ledger : t -> ledger

val resize_session : t -> session:int -> pages:int -> (int, reject) result
(** Commit [pages] pages of in-enclave session state through the
    reserved ECALL — the monitor's EDMM demand-commit path.
    @raise Invalid_argument if [pages] exceeds {!state_stride_pages} or
    is negative. *)

val grant : t -> tenant:string -> int -> unit
(** Add cycles to a tenant's quota budget (no-op when unmetered). *)

val quota_state : t -> tenant:string -> int * int
(** [(spent, budget)] — budget is [max_int] when unmetered. *)

val has_tenant : t -> tenant:string -> bool
(** Whether {!add_tenant} registered [tenant] on this plane.  A plane
    never forgets a tenant: a retired one stays registered, to forward
    its sessions. *)

val session_count : t -> int

val next_session_id : t -> int
(** The id this plane's next session gets.  Ids are node-prefixed: node
    [n] issues them from [n lsl 20] upward. *)

val resume_session_ids : t -> next:int -> unit
(** Issue no id below [next] from now on, when [next] lies in this
    node's own id space and ahead of the counter; otherwise do nothing.
    A plane rebuilt on the same node takes its predecessor's
    {!next_session_id} this way, so it never re-issues an id whose
    session may live on another node. *)

val sched_stats : t -> Hyperenclave_sched.Sched.stats
(** Cumulative scheduler statistics across every {!flush} so far — a
    read-only snapshot ({!Hyperenclave_sched.Sched.stats}); it never
    runs the scheduler. *)

val close_session : t -> session:int -> (unit, reject) result
(** Retire a session: drop anything still queued (the tenant's queue
    count shrinks accordingly), recycle its state slot for the next
    session on the same tenant, and forget the channel key.  Counter:
    [serve.session_close]. *)

val destroy : t -> unit
(** Tear down the plane: the quoting enclave, then every tenant backend
    (the plane built them, so it owns them — do not also call the
    handle's [destroy]).  All session / tenant / replay state is
    cleared.  Idempotent. *)

(** {1 Live migration}

    The plane-local half of moving a tenant between nodes.  The plane
    owns the migration blob's format and hands it out as opaque bytes;
    they carry {e plaintext} session state — channel keys, replay
    window tops and EDMM page contents — so the cluster layer seals them
    under a transport key derived from an attested exchange with the
    destination before they cross the simulated network; nothing here
    should touch a wire unsealed. *)

val export_tenant : t -> tenant:string -> (bytes, reject) result
(** Pack a tenant for migration: its enclave identity (MRENCLAVE), its
    live sessions in ascending id order — each with its node-prefixed
    id, channel key, replay window top, committed page count and those
    pages' bytes, read out through the enclave — and the replay-cache
    entries burnt for this tenant, in FIFO order: its handshakes' nonces,
    its resumptions' once the ticket opened, and those an earlier import
    brought in.  Other tenants' entries stay: each travels with its own
    tenant, and a nonce replayed at another tenant gets a quote binding
    that tenant's MRENCLAVE.  A resumption nonce whose ticket never
    opened stays too: a ticket opens only on the plane that sealed it.
    Refuses with {!Tenant_busy} while
    admitted requests are still staged (flush first) and
    {!Tenant_migrated} after cutover.  Does not mutate the plane —
    cutover is {!retire_tenant}. *)

val import_tenant : t -> bytes -> (int, reject) result
(** Install a blob from {!export_tenant} on this node: the tenant must
    already be registered ({!add_tenant} with the same backend config),
    measure identically to the blob's identity, and have no live
    session-id collisions.  Sessions reopen with their original ids,
    keys and window tops, every number below a top counted as seen (a
    number never used before the move cannot be replayed after it), so
    clients notice nothing; EDMM pages
    are re-committed and replayed through the enclave; the carried
    nonces are burnt here for the tenant, so a nonce burnt for it before
    the move stays burnt.  A
    malformed blob, an identity mismatch, a collision or a session
    larger than {!state_stride_pages} is {!Import_conflict}; a
    mid-install failure rolls back cleanly.  Never raises on malformed
    bytes.  Returns the number of sessions installed. *)

val retire_tenant : t -> tenant:string -> to_node:int -> (int, reject) result
(** Cutover: stop answering for the tenant and forward stragglers.
    Live sessions become {!Session_migrated} forwards to [to_node]; new
    handshakes and resumes get {!Tenant_migrated}.  Refuses with
    {!Tenant_busy} while requests are staged.  Returns the number of
    sessions retired.  An {!import_tenant} of the same tenant back onto
    this node (migrate-back) clears the forwards. *)

(** {1 Session resumption}

    A live session can be converted into a {e ticket}: the channel key
    and tenant identity sealed under a plane-local key with a TTL.  A
    returning client presents the ticket with a fresh nonce and gets a
    new session for one AEAD unseal — skipping the quote generation and
    verification of the full SIGMA handshake (an order of magnitude
    cheaper).  Both sides derive the new channel key from the ticketed
    key and the nonce ({!Hyperenclave_attestation.Sigma.key}), so the
    ticketed key itself never carries traffic, and the plane burns
    resumption nonces in the same bounded replay cache as handshake
    nonces. *)

val issue_ticket : t -> session:int -> (bytes, reject) result
(** Seal [(tenant, session key, expiry)] under the plane's prepared
    ticket key: one {!Hyperenclave_crypto.Authenc.seal} blob, the payload
    plus {!Hyperenclave_crypto.Authenc.overhead} bytes, opaque to the
    client.  Charges one AEAD setup plus the payload's bytes.  Counter:
    [serve.ticket_issued]. *)

type resume = { r_ticket : bytes; r_nonce : bytes }

val resume : t -> resume -> (int, reject) result
(** Open a new session from a ticket: replay check on the nonce, ticket
    unseal under the ticket AAD the plane derives (charged like the
    seal, on the ticket's length minus the overhead) + payload decode,
    TTL check, tenant lookup, fresh key derivation.
    Typed failures: {!Replayed_nonce}, {!Bad_ticket}, {!Ticket_expired},
    {!Unknown_tenant}.  Counters: [serve.resume], [serve.session_open]. *)

(** {1 Client} *)

module Client : sig
  type plane := t

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
      it is no group element), derive the session key and prepare it
      ({!Authenc.prepare}): the HKDF split, AES key schedule and HMAC
      pad midstates are paid here, once per session. *)

  val resume_hello : t -> ticket:bytes -> resume
  (** Start a resumption from the current session's key and a ticket
      previously issued for it: fresh nonce, sequence reset.  The old
      session becomes unusable on this client.
      @raise Invalid_argument without an established session. *)

  val complete_resume : t -> session_id:int -> unit
  (** Accept the plane's {!val-resume} result: derive and prepare the
      resumed channel key and switch to the new session.
      @raise Invalid_argument without a {!resume_hello} in flight. *)

  val session_id : t -> int
  (** @raise Invalid_argument before a session is established. *)

  val request : t -> ecall:int -> bytes -> request
  (** Seal the payload into a frame under the session's prepared keys,
      with the next sequence number and the nonce and AAD that header
      derives: one CTR pass and one MAC, no key setup. *)

  val read_reply : t -> reply -> (bytes, reject) result
  (** Unseal a copy of a reply frame's ciphertext in place under the
      session's prepared keys and the nonce and AAD derived from the
      reply's session id and sequence number (or surface its typed
      server-side failure).  A tag that fails, or a frame shorter than a
      tag, is {!Bad_auth}; it never raises on a malformed frame. *)

  val roundtrip :
    plane -> t -> (int * bytes) list -> (bytes, reject) result list
  (** Convenience: submit every request, {!flush}, and read this
      client's replies back in order (submission rejects short-circuit
      into the result list). *)
end
