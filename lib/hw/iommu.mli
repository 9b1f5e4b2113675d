(** IOMMU model (requirement R-3, Sec. 3.2).

    Devices can only DMA into frames that appear in their translation
    table.  RustMonitor configures the tables so that its own reserved
    region and the enclave pool are never mapped for any device; the
    primary OS may map anything else for its peripherals. *)

exception Dma_blocked of { device : string; frame : int }

type t
(** Each device's table is a bitmap, one byte per frame, grown by the
    grants it receives: granting all of DRAM is one fill, not one entry
    per frame. *)

val create : unit -> t

val attach : t -> device:string -> unit
(** Register a device with an empty (deny-all) translation table. *)

val grant : t -> device:string -> first_frame:int -> nframes:int -> unit
(** Map a frame range for the device; a range past the end of its table
    grows the table.  @raise Not_found if unattached.
    @raise Invalid_argument if [first_frame] or [nframes] is negative. *)

val revoke : t -> device:string -> first_frame:int -> nframes:int -> unit
(** Unmap a frame range (the part past the table's end is already
    unmapped).  @raise Not_found if unattached.
    @raise Invalid_argument on a negative range. *)

val revoke_everywhere : t -> first_frame:int -> nframes:int -> unit
(** Remove the range from {e every} device table — what RustMonitor does
    for reserved memory when it takes over.
    @raise Invalid_argument on a negative range. *)

val allowed : t -> device:string -> frame:int -> bool
(** False for an unattached device and for any frame its table never
    granted. *)

val dma_write : t -> device:string -> Phys_mem.t -> addr:int -> bytes -> unit
(** @raise Dma_blocked when any touched frame is unmapped for the device. *)

val dma_read : t -> device:string -> Phys_mem.t -> addr:int -> len:int -> bytes

val devices : t -> string list
