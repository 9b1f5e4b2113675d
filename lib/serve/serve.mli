(** Multi-tenant attested serving plane: the host half.

    A client proves who it is talking to with the paper's attestation
    chain (Sec. 5 — TPM quote over the measured boot + hapk binding,
    monitor-signed ems), agrees on a per-session channel key, and then
    submits encrypted requests that the plane admits and routes, still
    encrypted, into the SMP scheduler as slot-ring batches.  Everything
    that holds a key — the server's side of the exchange, each session's
    keys and replay window, tickets, and the ring worker that opens each
    request and seals its reply — is the enclave's half, {!Channel}; the
    plane reaches it only by session id.

    {2 Handshake (SIGMA-style)}

    The plane's run of the attested key exchange
    {!Hyperenclave_attestation.Sigma}: the client sends a fresh nonce
    and a key share; the tenant enclave answers with its own share and a
    quote over the transcript of nonce, both shares and its MRENCLAVE
    ({!Channel.handshake}); the client verifies it and derives the same
    key ({!Client.establish}).  Every tenant is a HyperEnclave enclave
    and quotes {e itself}; the native and SGX-model baselines are
    measured through {!Hyperenclave_tee.Backend}, not served here.

    {2 Sessions}

    A session is one attested channel and a {!state_stride_pages}-page
    EDMM region of the tenant enclave's heap, committed through the
    reserved state ECALLs (0x5e55-0x5e57).  The regions stack down from
    the heap's top, clear of the LibOS files, which grow up from its
    base.  {!handshake}, {!val-resume}
    and {!import_tenant} open sessions; {!close_session},
    {!retire_tenant} and an import rollback retire them: staged requests
    die and the state slot is recycled.  Session work crosses the
    ["serve.session"] fault site: transient faults are retried with
    backoff, permanent ones surface as typed {!Session_fault} errors.

    A plane is one {e node} of a fleet, created with an explicit
    {!identity}; tenants and their live sessions move between nodes
    through {!export_tenant}, {!import_tenant} and {!retire_tenant}. *)

open Hyperenclave_tee
module Signature := Hyperenclave_crypto.Signature
module Monitor := Hyperenclave_monitor.Monitor

(** {1 Typed rejections and wire messages} *)

include module type of struct
  include Msg
end

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
  ticket_ttl : int;
      (** resumption-ticket lifetime in shared-clock cycles *)
}

val default_config : config
(** 2 cores (scheduler defaults with [drop_on_error]), 64-request
    queues, unmetered quotas, 1e9-cycle ticket TTL.  The replay cache's
    bound is fixed ({!handshake}). *)

val state_stride_pages : int
(** 16: the per-session EDMM state region, in pages — the bound on
    {!resize_session} and on a migrated session's pages. *)

val slot_bytes : int
(** 256: ring slot payload capacity; an admission whose ciphertext
    exceeds it is refused with {!Unsupported}, and a handler reply must
    fit in it.  Each slot also keeps 32 bytes for the reply tag. *)

(** {1 Node identity}

    Every plane speaks as one addressable node of a fleet.  Callers
    thread the identity explicitly, so each quote-verification decision
    names its trust anchor. *)

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
(** Build a serving plane that answers as [identity.node_id], with its
    channel store ({!Channel.create}).  Session ids are node-prefixed, so
    a migrated session keeps its id on the destination.
    @raise Invalid_argument on invalid configuration, or when the
    identity's hapk is not this platform's monitor key. *)

val identity : t -> identity

val node_quote : t -> report_data:bytes -> Monitor.quote
(** A quote from the plane's quoting enclave, signed by this node's
    monitor: what a migration peer verifies before shipping sealed
    state.  The challenger's freshness goes in [report_data]. *)

val add_tenant : t -> name:string -> Backend.config -> Backend.t
(** Build the tenant's backend ({!Backend.create} with the plane's
    reserved session-state ECALLs appended) and register it.  The handle
    is for loading data and direct calls; the plane owns its teardown.
    Clients may address only the config's own [handlers] ({!submit}).
    @raise Invalid_argument, registering nothing, when [kind] is not
    [Hyperenclave _], on a duplicate name, or on a handler colliding
    with a reserved ECALL id. *)

val state_ecall : int
(** The reserved ECALL id behind {!resize_session}. *)

val quoting_identity : t -> bytes
(** MRENCLAVE of the plane's quoting enclave, the enclave behind
    {!node_quote} (created on first use) — what a migration peer pins as
    this node's anchor.  Tenant handshakes never use it. *)

(** {1 Server operations} *)

val handshake : t -> tenant:string -> hello -> (accept, reject) result
(** Burn the hello's nonce in the node's cache of its last 1,024
    handshake and resumption nonces ({!Replayed_nonce} if there; a nonce
    that is not 16 bytes long is [Bad_wire "nonce"] and burns nothing), then
    {!Channel.handshake}: a fresh EREPORT and ems over the transcript,
    paired with the platform quote from boot (no TPM command).
    Counters: [serve.handshake] / [serve.handshake_rejected]. *)

val issue_ticket : t -> session:int -> (bytes, reject) result
(** A resumption ticket ({!Channel.issue}) expiring [ticket_ttl] cycles
    from now.  Counter: [serve.ticket_issued]. *)

val resume : t -> resume -> (resumed, reject) result
(** Open a new session from a ticket: burn the client's nonce in the
    replay cache (a nonce that is not 16 bytes long is
    [Bad_wire "nonce"] and burns nothing), open the ticket ({!Channel.redeem}), check its TTL and
    tenant, then open the session under a key that takes a fresh server
    nonce ({!Channel.resume}); answer its id and that nonce.  A refused
    resume draws nothing, and a record replayed after its nonce left the
    cache opens a session whose key nobody holds.  Typed failures:
    {!Bad_wire}, {!Replayed_nonce}, {!Bad_ticket}, {!Ticket_expired},
    {!Unknown_tenant}, {!Tenant_migrated}.  Counters: [serve.resume],
    [serve.session_open]. *)

val submit : t -> request -> (unit, reject) result
(** Admit one request, in this order: a live session; a frame at least
    a tag long ({!Bad_auth}) whose ciphertext fits {!slot_bytes}
    ({!Unsupported}); the ["serve.session"] fault site; the ECALL check
    ({!Unsupported} unless [ecall_id] is one of the tenant's handlers,
    never a reserved id); the per-tenant queue bound and cycle quota.
    Admission uses no key and no sequence number, so a forged, tampered,
    replayed or misaddressed frame is admitted here and refused by the
    enclave in its {!flush} reply; a rejection here leaves no trace in
    the session. *)

val flush : t -> reply list
(** Drain every admitted request: copy each whole frame into a slot of a
    per-shard marshalling-buffer ring (one shard per scheduler core) and
    dispatch the rings switchlessly through the scheduler.  The block
    rotor picks each run of requests' shard, and shard [k]'s ring is
    owned by core [k mod cores]: the owner publishes the ring, serves
    its slots from the head and reads its reply image back
    ({!Hyperenclave_sdk.Urts.ring_dispatch}), and a core with no slot of
    its own left joins the ring and serves slots from the tail
    ({!Hyperenclave_sched.Sched.submit_job}; each ring's job is built
    with the ring, once).  Inside the enclave each
    slot is opened, checked for freshness and sealed back by
    {!Channel.ring}, on the clock of the core that serves it, so the
    shared segments carry no plaintext; a slot that fails a check runs
    no handler and its reply is {!Bad_auth} or {!Bad_sequence}, and a
    ring whose dispatch fails answers every request it carried with a
    typed {!Session_fault}.  Tenant quotas are charged from the dispatch
    cycles.  Replies come in tenant insertion order, then session id,
    then admission order.  No frame is copied out of its slot: a served
    reply views its frame in the ring's reply image, readable until this
    plane's next flush rewrites the rings ({!reply}; a later
    {!Client.read_reply} of it is {!Stale_reply}).  Each flush adds one
    entry to the {!ledger}.

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
(** Cumulative scheduler statistics across every {!flush} so far, a
    read-only snapshot ({!Hyperenclave_sched.Sched.stats}). *)

val close_session : t -> session:int -> (unit, reject) result
(** Retire a session: drop anything still queued, recycle its state
    slot for the tenant's next session, and have the channel store forget
    its key.  Counter: [serve.session_close]. *)

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
    destination before they cross the simulated network. *)

val export_tenant : t -> tenant:string -> (bytes, reject) result
(** Pack a tenant for migration: its MRENCLAVE, its live sessions in
    ascending id order — each with its id, its channel record
    ({!Channel.export}), its committed page count and those pages'
    bytes, read out through the enclave — under the magic ["hemig2:"].
    No nonce travels: the replay cache is node-local, and the blob
    depends on nothing but the tenant's sessions.  Refuses with
    {!Tenant_busy} while admitted requests are still staged and
    {!Tenant_migrated} after cutover.  Does not mutate the plane. *)

val import_tenant : t -> bytes -> (int, reject) result
(** Install a blob from {!export_tenant}: the tenant must already be
    registered here and measure identically to the blob's identity.
    Sessions reopen with their original ids, keys and window tops, so
    clients notice nothing; EDMM pages are re-committed and replayed
    through the enclave.  A malformed blob (one in an older format is
    refused at its magic), an identity mismatch, a live session-id
    collision or a session larger than {!state_stride_pages} is
    {!Import_conflict}, and a mid-install failure rolls back; it never
    raises on malformed bytes.  Returns the number of sessions
    installed. *)

val retire_tenant : t -> tenant:string -> to_node:int -> (int, reject) result
(** Cutover: stop answering for the tenant and forward stragglers.
    Live sessions become {!Session_migrated} forwards to [to_node]; new
    handshakes and resumes get {!Tenant_migrated}.  Refuses with
    {!Tenant_busy} while requests are staged.  Returns the number of
    sessions retired.  An {!import_tenant} of the same tenant back onto
    this node (migrate-back) clears the forwards. *)


(** {1 Client} *)

module Client : sig
  type plane := t

  include module type of struct
    include Client
  end

  val roundtrip :
    plane -> t -> (int * bytes) list -> (bytes, reject) result list
  (** Convenience: submit every request, {!flush}, and read this
      client's replies back in order (submission rejects short-circuit
      into the result list). *)
end
