type t = {
  size : int;
  frames : (int, bytes) Hashtbl.t;
  mutable observer : (int -> unit) option;
}

let create ~size_bytes =
  let size = Addr.align_up size_bytes in
  { size; frames = Hashtbl.create 1024; observer = None }

let set_write_observer t f = t.observer <- f

let observe t fn =
  match t.observer with None -> () | Some f -> f fn

let size_bytes t = t.size
let frames t = t.size / Addr.page_size

let check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
    invalid_arg
      (Printf.sprintf "Phys_mem: access [0x%x, +%d) outside 0x%x" addr len
         t.size)

(* Every mutation path obtains its target page through [frame_for], so
   the write observer fires exactly once per (write, frame) pair. *)
let frame_for t fn =
  observe t fn;
  match Hashtbl.find_opt t.frames fn with
  | Some page -> page
  | None ->
      let page = Bytes.make Addr.page_size '\000' in
      Hashtbl.replace t.frames fn page;
      page

let read_u8 t addr =
  check t addr 1;
  match Hashtbl.find_opt t.frames (Addr.page_of addr) with
  | None -> 0
  | Some page -> Char.code (Bytes.get page (Addr.offset addr))

let write_u8 t addr v =
  check t addr 1;
  let page = frame_for t (Addr.page_of addr) in
  Bytes.set page (Addr.offset addr) (Char.chr (v land 0xff))

let read_bytes t addr len =
  check t addr len;
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Addr.offset a in
    let chunk = min (len - !pos) (Addr.page_size - off) in
    (match Hashtbl.find_opt t.frames (Addr.page_of a) with
    | None -> Bytes.fill out !pos chunk '\000'
    | Some page -> Bytes.blit page off out !pos chunk);
    pos := !pos + chunk
  done;
  out

let write_bytes t addr data =
  let len = Bytes.length data in
  check t addr len;
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Addr.offset a in
    let chunk = min (len - !pos) (Addr.page_size - off) in
    let page = frame_for t (Addr.page_of a) in
    Bytes.blit data !pos page off chunk;
    pos := !pos + chunk
  done

(* Slice variants: the same page-walk as [read_bytes]/[write_bytes] but
   over a caller-owned buffer, so steady-state paths that recycle their
   staging images move bytes without allocating. *)
let check_slice buf pos len op =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg
      (Printf.sprintf "Phys_mem.%s: slice [%d, +%d) outside buffer of %d" op
         pos len (Bytes.length buf))

let write_sub t addr buf ~pos ~len =
  check t addr len;
  check_slice buf pos len "write_sub";
  let p = ref 0 in
  while !p < len do
    let a = addr + !p in
    let off = Addr.offset a in
    let chunk = min (len - !p) (Addr.page_size - off) in
    let page = frame_for t (Addr.page_of a) in
    Bytes.blit buf (pos + !p) page off chunk;
    p := !p + chunk
  done

let read_into t addr buf ~pos ~len =
  check t addr len;
  check_slice buf pos len "read_into";
  let p = ref 0 in
  while !p < len do
    let a = addr + !p in
    let off = Addr.offset a in
    let chunk = min (len - !p) (Addr.page_size - off) in
    (match Hashtbl.find_opt t.frames (Addr.page_of a) with
    | None -> Bytes.fill buf (pos + !p) chunk '\000'
    | Some page -> Bytes.blit page off buf (pos + !p) chunk);
    p := !p + chunk
  done

let read_u64 t addr =
  let b = read_bytes t addr 8 in
  Bytes.get_int64_le b 0

let write_u64 t addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write_bytes t addr b

let blit t ~src ~dst ~len = write_bytes t dst (read_bytes t src len)

let fill t ~addr ~len c =
  check t addr len;
  write_bytes t addr (Bytes.make len c)

let read_page t ~frame = read_bytes t (Addr.base_of_page frame) Addr.page_size

let write_page t ~frame data =
  if Bytes.length data <> Addr.page_size then
    invalid_arg "Phys_mem.write_page: not a whole page";
  write_bytes t (Addr.base_of_page frame) data

let zero_page t ~frame =
  observe t frame;
  Hashtbl.remove t.frames frame
