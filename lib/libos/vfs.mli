(** In-enclave virtual file system.

    The state behind the {!Libos} syscall layer: a flat namespace of files
    living entirely inside the enclave, so open/read/write/seek never
    leave the TEE — the property that makes a library OS the right shape
    for I/O-handling enclave applications (Sec. 3.4's Occlum port).

    Files are inodes: the namespace maps paths to {!node}s and an open fd
    holds the node itself, so unlinking a path while an fd is open leaves
    the orphaned inode fully readable/writable through that fd (POSIX
    semantics) — it is neither resurrected by later writes nor a source of
    exceptions.  Reads past EOF return short (possibly empty) data.

    File extents live in the heap behind the {!pager}: every extent
    read/write goes through its callbacks, so on a demand-paged enclave
    heap file I/O drives EPC commit and EWB/ELDU under pressure exactly
    like any other heap touch.  Extents are bump-allocated from heap
    offset 0 up and never freed.  Pure data structure; all cycle
    charging happens in {!Libos}. *)

type t
type node
(** An inode: identity, size and backing extent, independent of any path. *)

type stat = { size : int; created_at : int }

type pager = {
  p_read : off:int -> len:int -> bytes;
  p_write : off:int -> bytes -> unit;
}
(** Backing store for file extents, offset-addressed from 0.  {!Libos}
    wires these to its env's [heap_read]/[heap_write], making the VFS
    file-backed against demand-paged EPC on the HyperEnclave backends. *)

val create : pager -> t

(** {1 Namespace} *)

val exists : t -> path:string -> bool
val lookup : t -> path:string -> node option

val open_node :
  t -> path:string -> now:int -> create:bool -> trunc:bool -> node option
(** The open(2) core: returns the linked node, creating and/or truncating
    in place per the flags; [None] if absent and [create] is false.
    Truncation is in-place, so other fds holding the node observe size
    0 — not a fresh inode. *)

val unlink : t -> path:string -> bool
(** Removes only the namespace entry; open fds keep the inode alive.
    [false] if absent. *)

val stat : t -> path:string -> stat option
val size : t -> path:string -> int option
val list_prefix : t -> prefix:string -> string list

val paged_bytes : t -> int
(** Heap-extent bytes ever allocated from the pager (bump cursor). *)

(** {1 Inode operations} *)

val node_size : node -> int

val node_read : t -> node -> pos:int -> len:int -> bytes
(** Short reads at EOF (empty past it).
    @raise Invalid_argument on negative [pos]/[len]. *)

val node_write : t -> node -> pos:int -> bytes -> int
(** Extends the file as needed (zero-filling holes); returns the number
    of bytes written.  @raise Invalid_argument on negative [pos]. *)
