exception Dma_blocked of { device : string; frame : int }

(* One byte per frame (non-zero = mapped): a grant is one [Bytes.fill]
   instead of one hash-table entry per frame.  Frames at or past the end
   of [bits] are unmapped. *)
type table = { mutable bits : Bytes.t }

type t = { tables : (string, table) Hashtbl.t }

let create () = { tables = Hashtbl.create 8 }

let attach t ~device =
  if not (Hashtbl.mem t.tables device) then
    Hashtbl.replace t.tables device { bits = Bytes.empty }

let table t device =
  match Hashtbl.find_opt t.tables device with
  | Some tbl -> tbl
  | None -> raise Not_found

let refuse_negative fn ~first_frame ~nframes =
  if first_frame < 0 || nframes < 0 then
    invalid_arg (Printf.sprintf "Iommu.%s: negative frame range" fn)

let grant t ~device ~first_frame ~nframes =
  refuse_negative "grant" ~first_frame ~nframes;
  let tbl = table t device in
  let stop = first_frame + nframes in
  let size = Bytes.length tbl.bits in
  if stop > size then begin
    (* Doubling keeps a run of ascending grants linear. *)
    let bits = Bytes.make (max stop (2 * size)) '\000' in
    Bytes.blit tbl.bits 0 bits 0 size;
    tbl.bits <- bits
  end;
  Bytes.fill tbl.bits first_frame nframes '\001'

let clear tbl ~first_frame ~nframes =
  let stop = min (first_frame + nframes) (Bytes.length tbl.bits) in
  if stop > first_frame then
    Bytes.fill tbl.bits first_frame (stop - first_frame) '\000'

let revoke t ~device ~first_frame ~nframes =
  refuse_negative "revoke" ~first_frame ~nframes;
  clear (table t device) ~first_frame ~nframes

let revoke_everywhere t ~first_frame ~nframes =
  refuse_negative "revoke_everywhere" ~first_frame ~nframes;
  Hashtbl.iter (fun _ tbl -> clear tbl ~first_frame ~nframes) t.tables

let allowed t ~device ~frame =
  match Hashtbl.find_opt t.tables device with
  | None -> false
  | Some tbl ->
      frame >= 0
      && frame < Bytes.length tbl.bits
      && Bytes.get tbl.bits frame <> '\000'

let check_range t device addr len =
  let first = Addr.page_of addr in
  let npages = Addr.pages_spanned ~addr ~len in
  for f = first to first + npages - 1 do
    if not (allowed t ~device ~frame:f) then raise (Dma_blocked { device; frame = f })
  done

let dma_write t ~device mem ~addr data =
  check_range t device addr (Bytes.length data);
  Phys_mem.write_bytes mem addr data

let dma_read t ~device mem ~addr ~len =
  check_range t device addr len;
  Phys_mem.read_bytes mem addr len

let devices t = Hashtbl.fold (fun d _ acc -> d :: acc) t.tables []
