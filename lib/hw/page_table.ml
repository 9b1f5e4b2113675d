type perms = { write : bool; exec : bool; user : bool }

let pp_perms fmt p =
  Format.fprintf fmt "r%c%c%c"
    (if p.write then 'w' else '-')
    (if p.exec then 'x' else '-')
    (if p.user then 'u' else 'k')

let rw = { write = true; exec = false; user = true }
let rx = { write = false; exec = true; user = true }
let ro = { write = false; exec = false; user = true }
let rwx = { write = true; exec = true; user = true }
let kernel_rw = { write = true; exec = false; user = false }

type entry = {
  mutable frame : int;
  mutable perms : perms;
  mutable accessed : bool;
  mutable dirty : bool;
}

(* Levels 3 and 2 hold tables and level 1 holds leaves.  Where
   [map_identity] would fill an absent leaf, it leaves [Identity] in its
   slot instead: slots [lo, hi) of that leaf map each vpn to itself.
   Whatever reaches it first (a walk, a lookup, an update or an
   iteration) builds the leaf in place, so no reader can tell it from
   one that [map] filled. *)
type identity = { lo : int; hi : int; perms : perms }

type node =
  | Table of node option array
  | Leaf of entry option array
  | Identity of identity

type t = {
  root : node option array;
  mutable mapped : int;
  mutable nodes : int;
  mutable generation : int;
}

let fanout = 512
let create () = { root = Array.make fanout None; mapped = 0; nodes = 1; generation = 0 }
let index vpn level = (vpn lsr (9 * level)) land 0x1ff

(* Build the identity leaf over [vpn] in its slot of [table]. *)
let build table vpn { lo; hi; perms } =
  let base = vpn land lnot 0x1ff in
  let slots =
    Array.init fanout (fun i ->
        if i < lo || i >= hi then None
        else Some { frame = base lor i; perms; accessed = false; dirty = false })
  in
  table.(index vpn 1) <- Some (Leaf slots);
  slots

(* The level-1 table over [vpn]'s leaf, descending from [slots] at
   [level], or [[||]] if there is none; [create_missing] builds absent
   tables on the way. *)
let rec leaf_table t slots level vpn create_missing =
  if level = 1 then slots
  else
    let idx = index vpn level in
    match slots.(idx) with
    | Some (Table child) -> leaf_table t child (level - 1) vpn create_missing
    | None when create_missing ->
        let child = Array.make fanout None in
        slots.(idx) <- Some (Table child);
        t.nodes <- t.nodes + 1;
        leaf_table t child (level - 1) vpn create_missing
    | Some (Leaf _ | Identity _) | None -> [||]

(* [vpn]'s leaf, built if unbuilt; [create_missing] creates an absent
   one, and the tables above it, empty. *)
let leaf t vpn create_missing =
  match leaf_table t t.root 3 vpn create_missing with
  | [||] -> None
  | table -> (
      match table.(index vpn 1) with
      | Some (Leaf slots) -> Some slots
      | Some (Identity r) -> Some (build table vpn r)
      | None when create_missing ->
          let slots = Array.make fanout None in
          table.(index vpn 1) <- Some (Leaf slots);
          t.nodes <- t.nodes + 1;
          Some slots
      | Some (Table _) | None -> None)

let map t ~vpn ~frame ~perms =
  match leaf t vpn true with
  | None -> assert false
  | Some slots ->
      let idx = index vpn 0 in
      if slots.(idx) = None then t.mapped <- t.mapped + 1;
      t.generation <- t.generation + 1;
      slots.(idx) <- Some { frame; perms; accessed = false; dirty = false }

let unmap t ~vpn =
  match leaf t vpn false with
  | None -> ()
  | Some slots ->
      let idx = index vpn 0 in
      if slots.(idx) <> None then begin
        slots.(idx) <- None;
        t.generation <- t.generation + 1;
        t.mapped <- t.mapped - 1
      end

let map_identity t ~first_frame ~nframes ~perms =
  if first_frame < 0 || nframes < 0 then invalid_arg "Page_table.map_identity";
  let last = first_frame + nframes in
  let rec from vpn =
    if vpn < last then begin
      let base = vpn land lnot 0x1ff in
      let stop = min last (base + fanout) in
      let table = leaf_table t t.root 3 vpn true in
      (match table.(index vpn 1) with
      | None ->
          table.(index vpn 1) <-
            Some (Identity { lo = vpn - base; hi = stop - base; perms });
          t.nodes <- t.nodes + 1;
          t.mapped <- t.mapped + (stop - vpn);
          t.generation <- t.generation + (stop - vpn)
      | Some _ ->
          for vpn = vpn to stop - 1 do
            map t ~vpn ~frame:vpn ~perms
          done);
      from stop
    end
  in
  from first_frame

(* The leaf slot's own option: a lookup allocates nothing. *)
let rec find slots level vpn =
  match slots.(index vpn level) with
  | None -> None
  | Some (Table child) -> find child (level - 1) vpn
  | Some (Leaf leaf) -> leaf.(index vpn 0)
  | Some (Identity r) -> (build slots vpn r).(index vpn 0)

let lookup t ~vpn = find t.root 3 vpn

let protect t ~vpn ~perms =
  match lookup t ~vpn with
  | None -> raise Not_found
  | Some e ->
      t.generation <- t.generation + 1;
      e.perms <- perms

(* A real walk loads one entry per level including the leaf PTE.  Like
   [find], a top-level function rather than a closure over [vpn]: a walk
   on a TLB miss allocates nothing. *)
let rec walk_from slots level vpn levels_visited =
  incr levels_visited;
  match slots.(index vpn level) with
  | None -> None
  | Some (Table child) -> walk_from child (level - 1) vpn levels_visited
  | Some (Leaf leaf) ->
      incr levels_visited;
      leaf.(index vpn 0)
  | Some (Identity r) ->
      incr levels_visited;
      (build slots vpn r).(index vpn 0)

let walk t ~vpn ~levels_visited = walk_from t.root 3 vpn levels_visited

let mapped_count t = t.mapped
let table_pages t = t.nodes

let iter t f =
  let iter_leaf base slots =
    Array.iteri
      (fun i slot -> match slot with None -> () | Some e -> f ~vpn:(base lor i) e)
      slots
  in
  let rec go slots base level =
    Array.iteri
      (fun i slot ->
        let base = base lor (i lsl (9 * level)) in
        match slot with
        | None -> ()
        | Some (Table child) -> go child base (level - 1)
        | Some (Leaf leaf) -> iter_leaf base leaf
        | Some (Identity r) -> iter_leaf base (build slots base r))
      slots
  in
  go t.root 0 3

type snapshot = { gen : int; entries : (int * int * perms) list }

let snapshot t =
  let entries = ref [] in
  iter t (fun ~vpn e -> entries := (vpn, e.frame, e.perms) :: !entries);
  { gen = t.generation; entries = !entries }

let restore t snap =
  if t.generation <> snap.gen then begin
    let present = ref [] in
    iter t (fun ~vpn _ -> present := vpn :: !present);
    List.iter (fun vpn -> unmap t ~vpn) !present;
    List.iter (fun (vpn, frame, perms) -> map t ~vpn ~frame ~perms) snap.entries;
    t.generation <- snap.gen
  end

let generation t = t.generation

let find_vpn_of_frame t ~frame =
  let found = ref None in
  (try
     iter t (fun ~vpn e ->
         if e.frame = frame then begin
           found := Some vpn;
           raise Exit
         end)
   with Exit -> ());
  !found
