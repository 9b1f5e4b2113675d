(* CLRS-style B-tree with preemptive splitting; minimum degree td =
   order/2, so nodes hold between td-1 and 2*td-1 keys (root excepted). *)

let order = 32 (* max children per node *)
let td = order / 2
let node_bytes = order * 16

type node = {
  addr : int;
  mutable keys : int array;
  mutable children : node array; (* [||] for leaves *)
}

type t = {
  record_bytes : int;
  mutable root : node;
  values : (int, bytes) Hashtbl.t;
  value_addr : (int, int) Hashtbl.t;
  mutable next_addr : int;
  mutable count : int;
  mutable trail : int array;
      (* (address, length) pairs of the regions the last operation
         touched, root first; reused across operations *)
  mutable trail_n : int;  (* regions in [trail] *)
  mutable found : int array;
      (* keys the last range walk visited, ascending; reused likewise *)
  mutable found_n : int;
}

let is_leaf node = Array.length node.children = 0

let create ~addr_base ~record_bytes =
  let t =
    {
      record_bytes;
      root = { addr = addr_base; keys = [||]; children = [||] };
      values = Hashtbl.create 1024;
      value_addr = Hashtbl.create 1024;
      next_addr = addr_base + node_bytes;
      count = 0;
      trail = Array.make 32 0;
      trail_n = 0;
      found = Array.make 16 0;
      found_n = 0;
    }
  in
  t

let alloc t bytes =
  let addr = t.next_addr in
  t.next_addr <- t.next_addr + ((bytes + 63) land lnot 63);
  addr

(* [a], or a copy twice its size when index [i] (at most its length) lies
   past its end: the trail and the found keys are never shrunk, so a warm
   operation records its touches without allocating. *)
let grown a i =
  if i < Array.length a then a
  else begin
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let record t addr len =
  let i = 2 * t.trail_n in
  t.trail <- grown t.trail (i + 1);
  t.trail.(i) <- addr;
  t.trail.(i + 1) <- len;
  t.trail_n <- t.trail_n + 1

let touch t node = record t node.addr node_bytes

let touch_value t key =
  match Hashtbl.find t.value_addr key with
  | addr -> record t addr t.record_bytes
  | exception Not_found -> ()

(* Split the full child [child] of [parent] at child index [i]. *)
let split_child t parent i =
  let child = parent.children.(i) in
  let median = child.keys.(td - 1) in
  let right =
    {
      addr = alloc t node_bytes;
      keys = Array.sub child.keys td (td - 1);
      children =
        (if is_leaf child then [||] else Array.sub child.children td td);
    }
  in
  child.keys <- Array.sub child.keys 0 (td - 1);
  if not (is_leaf child) then child.children <- Array.sub child.children 0 td;
  let n = Array.length parent.keys in
  let keys = Array.make (n + 1) 0 in
  Array.blit parent.keys 0 keys 0 i;
  keys.(i) <- median;
  Array.blit parent.keys i keys (i + 1) (n - i);
  let children = Array.make (n + 2) child in
  Array.blit parent.children 0 children 0 (i + 1);
  children.(i + 1) <- right;
  Array.blit parent.children (i + 1) children (i + 2) (n - i);
  parent.keys <- keys;
  parent.children <- children

let find_slot keys key =
  (* First index with keys.(i) >= key. *)
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let rec insert_nonfull t node key =
  touch t node;
  let i = find_slot node.keys key in
  if i < Array.length node.keys && node.keys.(i) = key then ()
    (* key already present: value hashtable gets the fresh bytes below *)
  else if is_leaf node then begin
    let n = Array.length node.keys in
    let keys = Array.make (n + 1) 0 in
    Array.blit node.keys 0 keys 0 i;
    keys.(i) <- key;
    Array.blit node.keys i keys (i + 1) (n - i);
    node.keys <- keys
  end
  else begin
    let continue_at = ref (Some i) in
    if Array.length node.children.(i).keys = (2 * td) - 1 then begin
      split_child t node i;
      (* The promoted median may be exactly the key being inserted (a
         duplicate): it now lives in this node, so there is nothing left
         to do below. *)
      if key = node.keys.(i) then continue_at := None
      else if key > node.keys.(i) then continue_at := Some (i + 1)
    end;
    match !continue_at with
    | None -> ()
    | Some i -> insert_nonfull t node.children.(i) key
  end

let insert t ~key value =
  t.trail_n <- 0;
  if not (Hashtbl.mem t.values key) then begin
    t.count <- t.count + 1;
    Hashtbl.replace t.value_addr key (alloc t t.record_bytes)
  end;
  Hashtbl.replace t.values key value;
  if Array.length t.root.keys = (2 * td) - 1 then begin
    let old_root = t.root in
    let new_root =
      { addr = alloc t node_bytes; keys = [||]; children = [| old_root |] }
    in
    t.root <- new_root;
    split_child t new_root 0
  end;
  insert_nonfull t t.root key;
  touch_value t key

let rec find_node t node key =
  touch t node;
  let i = find_slot node.keys key in
  if i < Array.length node.keys && node.keys.(i) = key then true
  else if is_leaf node then false
  else find_node t node.children.(i) key

let find t ~key =
  t.trail_n <- 0;
  if find_node t t.root key then begin
    touch_value t key;
    Hashtbl.find_opt t.values key
  end
  else None

let update t ~key value =
  t.trail_n <- 0;
  if find_node t t.root key then begin
    touch_value t key;
    Hashtbl.replace t.values key value;
    true
  end
  else false

(* The one range traversal: in-order from the first key >= lo over up to
   [count] records.  Every node on the visited frontier and every visited
   record is touched, so the memory simulator sees the leaf-heavy access
   pattern of a range scan, and the visited keys are left in [found]. *)
let visit t key count =
  if t.found_n < count then begin
    touch_value t key;
    if Hashtbl.mem t.values key then begin
      t.found <- grown t.found t.found_n;
      t.found.(t.found_n) <- key;
      t.found_n <- t.found_n + 1
    end
  end

let rec walk_range t node lo count =
  if t.found_n < count then begin
    touch t node;
    let i0 = find_slot node.keys lo in
    if is_leaf node then
      for i = i0 to Array.length node.keys - 1 do
        if node.keys.(i) >= lo then visit t node.keys.(i) count
      done
    else begin
      (* Child i0 may still hold keys >= lo (they sit below the first
         separator >= lo), so descend there first, then alternate
         key/child rightwards. *)
      walk_range t node.children.(i0) lo count;
      let i = ref i0 in
      while t.found_n < count && !i < Array.length node.keys do
        if node.keys.(!i) >= lo then visit t node.keys.(!i) count;
        incr i;
        if t.found_n < count then walk_range t node.children.(!i) lo count
      done
    end
  end

let range t ~lo ~count =
  t.trail_n <- 0;
  t.found_n <- 0;
  walk_range t t.root lo count

let scan t ~lo ~count =
  range t ~lo ~count;
  List.init t.found_n (fun i ->
      let key = t.found.(i) in
      (key, Hashtbl.find t.values key))

let count_range t ~lo ~hi ~count =
  range t ~lo ~count;
  let rows = ref 0 in
  for i = 0 to t.found_n - 1 do
    if t.found.(i) <= hi then incr rows
  done;
  !rows

let size t = t.count

let depth t =
  let rec go node acc = if is_leaf node then acc else go node.children.(0) (acc + 1) in
  go t.root 1

let touched t = t.trail_n

let touched_addr t i =
  if i < 0 || i >= t.trail_n then invalid_arg "Btree.touched_addr";
  t.trail.(2 * i)

let touched_len t i =
  if i < 0 || i >= t.trail_n then invalid_arg "Btree.touched_len";
  t.trail.((2 * i) + 1)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let leaf_depth = ref (-1) in
  let rec go node depth ~is_root lo hi =
    let n = Array.length node.keys in
    if (not is_root) && n < td - 1 then fail "node underfull (%d keys)" n;
    if n > (2 * td) - 1 then fail "node overfull (%d keys)" n;
    for i = 0 to n - 2 do
      if node.keys.(i) >= node.keys.(i + 1) then fail "keys out of order"
    done;
    (match (lo, node.keys) with
    | Some lo, [||] -> ignore lo
    | Some lo, keys -> if keys.(0) <= lo then fail "key below separator"
    | None, _ -> ());
    (match (hi, node.keys) with
    | Some hi, keys when n > 0 -> if keys.(n - 1) >= hi then fail "key above separator"
    | Some _, _ | None, _ -> ());
    if is_leaf node then begin
      if !leaf_depth = -1 then leaf_depth := depth
      else if !leaf_depth <> depth then fail "unbalanced leaves"
    end
    else begin
      if Array.length node.children <> n + 1 then fail "child count mismatch";
      Array.iteri
        (fun i child ->
          let lo = if i = 0 then lo else Some node.keys.(i - 1) in
          let hi = if i = n then hi else Some node.keys.(i) in
          go child (depth + 1) ~is_root:false lo hi)
        node.children
    end
  in
  go t.root 0 ~is_root:true None None
