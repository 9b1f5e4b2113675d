(** Real applications as in-enclave services behind {!Serve}.

    The registration layer of ROADMAP item 2: a tenant becomes an enclave
    running one of the {!Hyperenclave_workloads} applications on the
    {!Hyperenclave_libos.Libos} runtime, and the ring-slot payloads of
    the attested plane, decrypted by the in-enclave ring worker, become
    workload requests —

    - {b resp_kv}: RESP command pipelines against a per-tenant
      {!Hyperenclave_workloads.Resp_kv.Store}, with SET commands
      journaled to an append-only file (the redis AOF shape);
    - {b kvdb}: SQL text against the mini engine (YCSB point reads,
      updates and BETWEEN range scans), mutations journaled to a WAL;
    - {b httpd}: HTTP GETs resolved against a file-backed VFS docroot
      whose extents live in the demand-paged enclave heap, bodies
      streamed in write() chunks.

    Every service runs on a lazily-built LibOS instance: requests enter
    through a loopback socket ({!Hyperenclave_libos.Libos.sock_deliver}),
    an epoll wait gates the read, and replies leave through
    {!Hyperenclave_libos.Libos.sock_drain} — no OCALLs, so the handlers
    dispatch switchlessly inside arena ring slots, and the reply the
    worker seals into the reply slot is exactly what the application
    wrote to its socket.  Adding a new service scenario is one [handlers]-shaped
    function (~a page of code).

    Handlers never raise on malformed input that arrives through the
    plane: protocol errors come back as typed in-band replies
    (["-ERR ..."], ["HTTP/1.1 400 ..."]). *)

open Hyperenclave_tee

type kind = Resp_kv | Kvdb | Httpd

val kind_name : kind -> string

val ecall_request : int
(** One service request: RESP pipeline bytes / a SQL statement / an HTTP
    request.  The request and the reply must each fit one ring slot,
    {!Serve.slot_bytes} (256 bytes): a longer request is refused at
    admission, and a longer reply (resp_kv and httpd echo an unknown
    command or a bad version) is refused as [Serve.Unsupported] for its
    request alone.  kvdb journals a statement to its WAL when the engine
    reports it inserted or updated a row ({!Hyperenclave_workloads.Kvdb.Engine.mutated}),
    whatever its spelling or leading blanks. *)

val ecall_admin : int
(** Operator setup: a bulk load ({!load_request}) or a docroot file
    ({!page_request}).  Whoever owns the tenant drives it through the
    backend, but the plane admits it like any other handler, so a
    session client may send one too.  A malformed payload is answered
    in-band, like a bad request (["-ERR bad admin request"],
    ["HTTP/1.1 400 bad admin request"]); it never raises out of the
    flush. *)

val handlers : kind -> (int * Backend.handler) list

val backend_config : kind -> Backend.config
(** A tenant config running this service in a HyperEnclave GU-mode
    enclave — pass to {!Serve.add_tenant}. *)

(** {1 Client-side request builders} *)

val request_of_op : kind -> Hyperenclave_workloads.Ycsb.op -> bytes
(** The wire request for a YCSB operation ({!Resp_kv} and {!Kvdb} only). *)

val http_request : path:string -> bytes

val load_request : records:int -> bytes
(** [ecall_admin] payload: bulk-load [records] keyed rows. *)

val page_request : path:string -> bytes:int -> bytes
(** [ecall_admin] payload: create a docroot file of [bytes] at [path]. *)

val reply_ok : kind -> bytes -> bool
(** Did the service answer affirmatively (no ["-ERR"], no miss, HTTP
    200)? *)
