(* Open-addressing hash table specialized to non-negative int keys.

   The simulation kernels probe a map once per simulated cache line (TLB
   residency) and once per touched page (EPC residency); the generic
   [Hashtbl] costs there — polymorphic hashing, bucket-list chasing, a
   cons per [replace] — dominate the simulator's wall-clock profile.
   This table keeps keys and values in flat parallel arrays with linear
   probing, so a lookup is a multiplicative hash plus a short scan of
   adjacent words and mutation never allocates.

   Key space: keys must be >= 0 (virtual/physical page numbers); -1
   marks an empty slot.  [remove] compacts the probe cluster in place
   (backward-shift deletion) instead of leaving tombstones, so a table
   under steady insert/remove churn — the TLB at capacity evicting one
   entry per insert — never degrades and never needs a rehash. *)

type 'a t = {
  mutable keys : int array; (* -1 empty *)
  mutable vals : 'a array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int;
  dummy : 'a;
}

let empty_key = -1

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let create ?(size_hint = 16) ~dummy () =
  let cap = pow2_at_least (max 16 (size_hint * 2)) 16 in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap dummy;
    mask = cap - 1;
    live = 0;
    dummy;
  }

(* Fibonacci hashing: spreads consecutive page numbers across the table;
   quality only affects speed, never observable results. *)
let slot_of t key = (key * 0x5851F42D4C957F2D) lsr 7 land t.mask

(* Slot holding [key], or [lnot free_slot] (negative) where the probe
   ended: one scan answers both "is it here" and "where would it go".
   The probe is a top-level function, not a closure over the arrays, so a
   lookup allocates nothing. *)
let rec probe keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key then i
  else if k = empty_key then lnot i
  else probe keys mask key ((i + 1) land mask)

let find_slot t key = probe t.keys t.mask key (slot_of t key)

(* First empty slot from [j] on. *)
let rec free_slot keys mask j =
  if keys.(j) = empty_key then j else free_slot keys mask ((j + 1) land mask)

let mem t key = find_slot t key >= 0

let set_if_mem t key v =
  let i = find_slot t key in
  if i >= 0 then begin
    t.vals.(i) <- v;
    true
  end
  else false

let find_opt t key =
  let i = find_slot t key in
  if i >= 0 then Some t.vals.(i) else None

let resize t cap =
  let okeys = t.keys and ovals = t.vals in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap t.dummy;
  t.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = free_slot t.keys t.mask (slot_of t k) in
        t.keys.(j) <- k;
        t.vals.(j) <- ovals.(i)
      end)
    okeys

let set t key v =
  if key < 0 then invalid_arg "Fast_table.set: negative key";
  let i = find_slot t key in
  if i >= 0 then t.vals.(i) <- v
  else begin
    let cap = t.mask + 1 in
    let j =
      if (t.live + 1) * 2 > cap then begin
        (* Keep load <= 1/2 so probe clusters stay short. *)
        resize t (cap * 2);
        free_slot t.keys t.mask (slot_of t key)
      end
      else lnot i
    in
    t.keys.(j) <- key;
    t.vals.(j) <- v;
    t.live <- t.live + 1
  end

let remove t key =
  let i = find_slot t key in
  if i >= 0 then begin
    let keys = t.keys and vals = t.vals and mask = t.mask in
    (* Backward-shift deletion: walk the cluster after the hole and pull
       back any entry whose probe path crosses the hole, so lookups never
       need a tombstone marker to keep probing past. *)
    let hole = ref i in
    let j = ref ((i + 1) land mask) in
    let scanning = ref true in
    while !scanning do
      let k = Array.unsafe_get keys !j in
      if k = empty_key then scanning := false
      else begin
        (* [k] can fill the hole iff the hole lies on its probe path,
           i.e. cyclically between its home slot and [j]. *)
        if (!j - slot_of t k) land mask >= (!j - !hole) land mask then begin
          keys.(!hole) <- k;
          vals.(!hole) <- vals.(!j);
          hole := !j
        end;
        j := (!j + 1) land mask
      end
    done;
    keys.(!hole) <- empty_key;
    vals.(!hole) <- t.dummy;
    t.live <- t.live - 1
  end

let length t = t.live

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  Array.fill t.vals 0 (Array.length t.vals) t.dummy;
  t.live <- 0
