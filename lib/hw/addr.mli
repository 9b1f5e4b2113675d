(** Address arithmetic for the simulated machine.

    Virtual and physical addresses are plain [int]s (the simulated machine
    is well below 62 bits).  Pages are 4 KiB.  Frame numbers index physical
    pages; page numbers index virtual pages. *)

val page_size : int
(** 4096. *)

val page_of : int -> int
(** [page_of addr] is the page (or frame) number containing [addr]. *)

val base_of_page : int -> int
(** [base_of_page pn] is the first address of page [pn]. *)

val offset : int -> int
(** [offset addr] is [addr] modulo the page size. *)

val align_up : int -> int
(** Round up to the next page boundary. *)

val align_down : int -> int
(** Round down to a page boundary. *)

val is_aligned : int -> bool

val pages_spanned : addr:int -> len:int -> int
(** Number of pages touched by the byte range [\[addr, addr+len)]. *)

val pp : Format.formatter -> int -> unit
(** Hexadecimal address printer. *)

val index : level:int -> int -> int
(** [index ~level va] is the 9-bit radix-tree index of [va] at page-table
    [level] (level 3 is the root of a 4-level x86-64-style table, level 0
    selects the final PTE). *)
