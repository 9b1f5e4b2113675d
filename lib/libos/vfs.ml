open Hyperenclave_hw

type pager = {
  p_read : off:int -> len:int -> bytes;
  p_write : off:int -> bytes -> unit;
}

type store =
  | Mem of { mutable data : bytes }
  | Paged of { mutable base : int; mutable cap : int }

type node = {
  created_at : int;
  mutable size : int;
  store : store ref;
}

type stat = { size : int; created_at : int }

type t = {
  files : (string, node) Hashtbl.t;
  pager : pager option;
  mutable heap_cursor : int;
}

let create ?pager () =
  { files = Hashtbl.create 32; pager; heap_cursor = 0 }

let paged t = t.pager <> None
let exists t ~path = Hashtbl.mem t.files path
let lookup t ~path = Hashtbl.find_opt t.files path
let node_size (n : node) = n.size

(* --- extent management (paged backing) ---------------------------------- *)

let alloc_extent t bytes =
  let aligned = Addr.align_up (max bytes Addr.page_size) in
  let base = t.heap_cursor in
  t.heap_cursor <- base + aligned;
  (base, aligned)

let pager_exn t =
  match t.pager with
  | Some p -> p
  | None -> invalid_arg "Vfs: paged store without a pager"

(* Copy [len] live bytes between extents through the pager, one page at a
   time so a demand-paged heap commits/evicts at page granularity. *)
let move_extent t ~src ~dst ~len =
  let p = pager_exn t in
  let pos = ref 0 in
  while !pos < len do
    let chunk = min Addr.page_size (len - !pos) in
    p.p_write ~off:(dst + !pos) (p.p_read ~off:(src + !pos) ~len:chunk);
    pos := !pos + chunk
  done

let ensure_cap t (node : node) ~needed =
  match !(node.store) with
  | Mem m ->
      if needed > Bytes.length m.data then begin
        let grown = Bytes.make needed '\000' in
        Bytes.blit m.data 0 grown 0 (Bytes.length m.data);
        m.data <- grown
      end
  | Paged pg ->
      if needed > pg.cap then begin
        let base, cap = alloc_extent t (max needed (2 * pg.cap)) in
        if node.size > 0 then move_extent t ~src:pg.base ~dst:base ~len:node.size;
        pg.base <- base;
        pg.cap <- cap
      end

(* --- inode-level operations --------------------------------------------- *)

let node_read t (node : node) ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "Vfs.node_read: negative pos/len";
  if pos >= node.size || len = 0 then Bytes.empty
  else
    let len = min len (node.size - pos) in
    match !(node.store) with
    | Mem m -> Bytes.sub m.data pos len
    | Paged pg -> (pager_exn t).p_read ~off:(pg.base + pos) ~len

let node_write t (node : node) ~pos data =
  if pos < 0 then invalid_arg "Vfs.node_write: negative pos";
  let len = Bytes.length data in
  let needed = pos + len in
  ensure_cap t node ~needed;
  (* Zero-fill any hole between current EOF and the write position, so
     sparse writes behave the same on both store kinds. *)
  (match !(node.store) with
  | Mem m ->
      Bytes.blit data 0 m.data pos len
  | Paged pg ->
      let p = pager_exn t in
      if pos > node.size then
        p.p_write ~off:(pg.base + node.size)
          (Bytes.make (pos - node.size) '\000');
      if len > 0 then p.p_write ~off:(pg.base + pos) data);
  if needed > node.size then node.size <- needed;
  len

let node_truncate _t (node : node) =
  (* Keep the extent: O_TRUNC reuse is the common case and the bump
     allocator never frees anyway. *)
  node.size <- 0

(* --- namespace operations ----------------------------------------------- *)

let fresh_node t ~now =
  let store =
    if paged t then Paged { base = 0; cap = 0 } else Mem { data = Bytes.empty }
  in
  { created_at = now; size = 0; store = ref store }

let open_node t ~path ~now ~create ~trunc =
  match Hashtbl.find_opt t.files path with
  | Some node ->
      if trunc then node_truncate t node;
      Some node
  | None ->
      if not create then None
      else begin
        let node = fresh_node t ~now in
        Hashtbl.replace t.files path node;
        Some node
      end

let unlink t ~path =
  (* POSIX semantics: only the namespace entry goes away; any open fd
     still holding the node keeps reading/writing the orphaned inode. *)
  if Hashtbl.mem t.files path then begin
    Hashtbl.remove t.files path;
    true
  end
  else false

let stat t ~path =
  Option.map
    (fun (n : node) -> { size = n.size; created_at = n.created_at })
    (Hashtbl.find_opt t.files path)

let size t ~path =
  Option.map (fun (n : node) -> n.size) (Hashtbl.find_opt t.files path)

let list_prefix t ~prefix =
  Hashtbl.fold
    (fun path _ acc ->
      if String.starts_with ~prefix path then path :: acc else acc)
    t.files []
  |> List.sort compare

let paged_bytes t = t.heap_cursor
