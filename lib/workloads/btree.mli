(** In-memory B-tree with synthetic node addresses.

    The storage engine under the SQLite stand-in ({!Kvdb}).  Every node
    carries the address it would occupy in enclave memory so lookups can
    charge the memory-system simulator for exactly the nodes and record
    bytes they touch — the locality of the hot upper levels (which stay in
    the LLC / EPC) versus cold leaves is what shapes Fig. 8b. *)

type t

val create : addr_base:int -> record_bytes:int -> t
(** An empty tree of order 32 (at most 32 children per node). *)

val insert : t -> key:int -> bytes -> unit
val find : t -> key:int -> bytes option

val update : t -> key:int -> bytes -> bool
(** [false] if the key is absent. *)

val scan : t -> lo:int -> count:int -> (int * bytes) list
(** Up to [count] records with key >= [lo], ascending.  Like {!find},
    records every node and value region visited in the trail. *)

val count_range : t -> lo:int -> hi:int -> count:int -> int
(** The walk of {!scan} (same nodes and records, same trail), returning
    how many of the visited records have key <= [hi] instead of listing
    them: a range scan that allocates nothing once the tree's reused
    buffers have grown to fit it. *)

val size : t -> int
val depth : t -> int

(** {1 Touch trail}

    Every operation records the (address, length) of each region it
    touched, root first, in a trail the tree reuses: the caller walks it
    with the three readers below and feeds each region to the memory
    simulator.  The trail is valid until the next operation. *)

val touched : t -> int
(** Regions the most recent operation touched. *)

val touched_addr : t -> int -> int
val touched_len : t -> int -> int
(** Address and length of region [i], [0 <= i < touched t];
    @raise Invalid_argument outside that range. *)

val check_invariants : t -> unit
(** Sorted keys, balanced leaf depth, branching bounds.  @raise Failure. *)
