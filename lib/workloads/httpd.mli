(** Lighttpd stand-in: an in-enclave static web server (Fig. 8c).

    The server runs inside the enclave under an Occlum-style libOS shim:
    each HTTP request arrives as one ECALL, is genuinely parsed
    (request line, headers, path validation), resolved against an
    in-memory document root, and the response is streamed back through
    write OCALLs in 16 KB chunks — the frequent world switches that
    dominate this benchmark (Sec. 7.4).  Workers also pay per-chunk
    network-stack cost on every backend, enclave or not. *)

open Hyperenclave_tee

val ecall_request : int
val chunk_bytes : int
(** 16 KiB write() chunks. *)

(** {2 Cost model (shared with the service-layer variant)} *)

val per_request_cost : int
val per_parse_char : int
val per_chunk_net : int

val body_cost : int -> int
(** Content assembly + checksumming cycles for a body of this size. *)

val handlers : pages:(string * int) list -> (int * Backend.handler) list
(** Document root: (path, size-in-bytes) pairs. *)

val ocalls : unit -> (int * (bytes -> bytes)) list
(** The untrusted socket-write handlers (shared shape for all backends). *)

val serve : Backend.t -> path:string -> int
(** One request through the backend; returns simulated cycles.
    @raise Failure on a non-200 response. *)

val throughput_rps : cycles_per_request:float -> float
(** Requests/second at 2.2 GHz. *)

(** {1 Pure request parser (unit-testable)} *)

type request = { meth : string; path : string; headers : (string * string) list }

val parse_request : string -> (request, string) result
