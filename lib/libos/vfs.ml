open Hyperenclave_hw

type pager = {
  p_read : off:int -> len:int -> bytes;
  p_write : off:int -> bytes -> unit;
}

type node = {
  created_at : int;
  mutable size : int;
  mutable base : int; (* the extent's heap offset *)
  mutable cap : int; (* the extent's bytes; 0 before the first write *)
}

type stat = { size : int; created_at : int }

type t = {
  files : (string, node) Hashtbl.t;
  pager : pager;
  mutable heap_cursor : int;
}

let create pager = { files = Hashtbl.create 32; pager; heap_cursor = 0 }

let exists t ~path = Hashtbl.mem t.files path
let lookup t ~path = Hashtbl.find_opt t.files path
let node_size (n : node) = n.size

(* --- extent management ---------------------------------------------------- *)

let alloc_extent t bytes =
  let aligned = Addr.align_up (max bytes Addr.page_size) in
  let base = t.heap_cursor in
  t.heap_cursor <- base + aligned;
  (base, aligned)

(* Copy [len] live bytes between extents through the pager, one page at a
   time so a demand-paged heap commits/evicts at page granularity. *)
let move_extent t ~src ~dst ~len =
  let p = t.pager in
  let pos = ref 0 in
  while !pos < len do
    let chunk = min Addr.page_size (len - !pos) in
    p.p_write ~off:(dst + !pos) (p.p_read ~off:(src + !pos) ~len:chunk);
    pos := !pos + chunk
  done

let ensure_cap t (node : node) ~needed =
  if needed > node.cap then begin
    let base, cap = alloc_extent t (max needed (2 * node.cap)) in
    if node.size > 0 then move_extent t ~src:node.base ~dst:base ~len:node.size;
    node.base <- base;
    node.cap <- cap
  end

(* --- inode-level operations --------------------------------------------- *)

let node_read t (node : node) ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "Vfs.node_read: negative pos/len";
  if pos >= node.size || len = 0 then Bytes.empty
  else t.pager.p_read ~off:(node.base + pos) ~len:(min len (node.size - pos))

let node_write t (node : node) ~pos data =
  if pos < 0 then invalid_arg "Vfs.node_write: negative pos";
  let len = Bytes.length data in
  let needed = pos + len in
  ensure_cap t node ~needed;
  (* Zero-fill any hole between the current EOF and the write position:
     a truncated file keeps its extent and the bytes it held. *)
  if pos > node.size then
    t.pager.p_write ~off:(node.base + node.size)
      (Bytes.make (pos - node.size) '\000');
  if len > 0 then t.pager.p_write ~off:(node.base + pos) data;
  if needed > node.size then node.size <- needed;
  len

let node_truncate _t (node : node) =
  (* Keep the extent: O_TRUNC reuse is the common case and the bump
     allocator never frees anyway. *)
  node.size <- 0

(* --- namespace operations ----------------------------------------------- *)

let open_node t ~path ~now ~create ~trunc =
  match Hashtbl.find_opt t.files path with
  | Some node ->
      if trunc then node_truncate t node;
      Some node
  | None ->
      if not create then None
      else begin
        let node = { created_at = now; size = 0; base = 0; cap = 0 } in
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
