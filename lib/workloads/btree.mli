(** In-memory B-tree with synthetic node addresses.

    The storage engine under the SQLite stand-in ({!Kvdb}).  Every node
    carries the address it would occupy in enclave memory so lookups can
    charge the memory-system simulator for exactly the nodes and record
    bytes they touch — the locality of the hot upper levels (which stay in
    the LLC / EPC) versus cold leaves is what shapes Fig. 8b. *)

type t

val create : ?order:int -> addr_base:int -> record_bytes:int -> unit -> t
(** [order] is the max children per node (default 32). *)

val insert : t -> key:int -> bytes -> unit
val find : t -> key:int -> bytes option

val update : t -> key:int -> bytes -> bool
(** [false] if the key is absent. *)

val scan : t -> lo:int -> count:int -> (int * bytes) list
(** Up to [count] records with key >= [lo], ascending.  Like {!find},
    records every node and value region visited for {!last_touched}. *)

val size : t -> int
val depth : t -> int

val last_touched : t -> (int * int) list
(** (address, length) of every region the most recent operation touched,
    root first; the caller feeds these to the memory simulator. *)

val check_invariants : t -> unit
(** Sorted keys, balanced leaf depth, branching bounds.  @raise Failure. *)
