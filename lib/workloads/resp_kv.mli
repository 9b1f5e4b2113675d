(** Redis stand-in: an in-enclave RESP key-value server (Fig. 8d).

    A real RESP2 protocol parser in front of a hash-table store.  Per the
    paper's setup: 50,000 1 KB records loaded, then YCSB-A GET/SET
    operations; each operation costs a network read and a network write
    OCALL (the Occlum-served Redis' socket I/O), which is what separates
    the backends.

    The latency-throughput curve is produced with an M/M/1 open-loop
    model over the measured service time: the bench raises the offered
    request rate and reports mean latency until the server saturates at
    1/S — reproducing the knee ordering native > HU > GU > SGX. *)

open Hyperenclave_tee

val ecall_command : int
val handlers : unit -> (int * Backend.handler) list
val ocalls : unit -> (int * (bytes -> bytes)) list

val encode_command : string list -> bytes
(** RESP array-of-bulk-strings encoding, e.g.
    [encode_command \["SET"; "k"; "v"\]]. *)

val load : Backend.t -> records:int -> unit
val op : Backend.t -> Ycsb.op -> int
(** One GET/SET through the backend; simulated cycles. *)

val parts_of_op : Ycsb.op -> string list
(** The RESP command for a YCSB operation (scans degrade to a GET of the
    anchor key, like YCSB's Redis binding). *)

val key_name : int -> string
val value_for : int -> string

(** The hash-table store behind the protocol, exposed so the service
    layer can execute parsed commands against a per-tenant instance
    (charging the same per-command and value-touch costs). *)
module Store : sig
  type t

  val create : unit -> t
  val size : t -> int

  val exec : t -> Backend.env -> string list -> string
  (** One command; returns the RESP-encoded reply (["-ERR ..."] for
      protocol-level errors — never an exception). *)
end

val service_time : Backend.t -> records:int -> samples:int -> float
(** Mean cycles per operation under YCSB-A, 12 pipelined commands per
    server wakeup (saturation). *)

val latency_curve :
  service_cycles:float ->
  offered_kops:float list ->
  (float * float option) list
(** [(offered load, mean latency in us)] — [None] once saturated. *)

(** {1 Pure RESP parser (unit-testable)} *)

val parse_resp : string -> (string list, string) result

val parse_pipeline : string -> (string list list, string) result
(** The back-to-back commands of a pipelined request, one [string list]
    per command.  Returns the first parse error, if any. *)
