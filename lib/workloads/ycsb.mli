(** YCSB workload generator (Cooper et al., SoCC'10) — the load used for
    the SQLite and Redis evaluations (Fig. 8b, 8d).

    Workload A: 50% reads, 50% updates; B: 95% reads, 5% updates;
    C: reads only — keys drawn from a zipfian distribution over the
    loaded records.  {!next_scan} produces the short range scans of the
    scan-heavy workloads. *)

type op =
  | Read of int  (** key *)
  | Update of int  (** key *)
  | Scan of int * int  (** start key, record count *)

type t

val create : rng:Hyperenclave_hw.Rng.t -> records:int -> unit -> t
(** Keys over [records] rows, zipfian with theta 0.99 (the YCSB
    standard constant). *)

val next_key : t -> int
(** Zipfian-distributed key in [\[0, records)], hottest keys first. *)

val next_op_a : t -> op
(** Workload A mix (50/50 read/update). *)

val next_op_b : t -> op
(** Workload B mix (95/5 read/update). *)

val next_op_c : t -> op
(** Workload C mix (read-only). *)

val next_scan : t -> ?max_len:int -> unit -> op
(** A zipfian-anchored range scan of 1..[max_len] records (default 16). *)

val record_value : key:int -> size:int -> bytes
(** Deterministic record payload for a key. *)
