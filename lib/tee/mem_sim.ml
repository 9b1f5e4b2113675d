open Hyperenclave_hw

(* Growable circular int queue for the EPC CLOCK hand: same FIFO order as
   [Queue] (including stale entries for already-evicted pages, which the
   eviction scan skips) but without a cons per enqueue. *)
module Ring = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 4096 0; head = 0; len = 0 }

  let push t v =
    let cap = Array.length t.buf in
    if t.len = cap then begin
      let buf = Array.make (cap * 2) 0 in
      for i = 0 to t.len - 1 do
        buf.(i) <- t.buf.((t.head + i) land (cap - 1))
      done;
      t.buf <- buf;
      t.head <- 0
    end;
    t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- v;
    t.len <- t.len + 1

  let pop t =
    if t.len = 0 then -1
    else begin
      let v = t.buf.(t.head) in
      t.head <- (t.head + 1) land (Array.length t.buf - 1);
      t.len <- t.len - 1;
      v
    end
end

type translation = One_level | Nested

type t = {
  translation : translation;
  tlb : Tlb.t;
  clock : Cycles.t;
  cost : Cost_model.t;
  rng : Rng.t;
  engine : Mem_crypto.engine;
  cache : Cache.t;
  llc_bytes : int;
  sample_cap : int;
  (* Engine/translation-dependent per-line costs, folded at creation so
     the per-line hot loop never re-matches on the engine. *)
  seq_miss : int; (* clean prefetched miss (doubled on dirty evict) *)
  dep_miss : int; (* clean dependent-load miss (doubled on dirty evict) *)
  tree_extra : int; (* MEE integrity-tree walk, per dependent miss *)
  walk_cost : int; (* page-table walk on TLB miss *)
  (* EPC residency (Mee only): page-granular CLOCK (approximate LRU),
     like the SGX driver's reclaim scan — hot pages survive, so zipfian
     workloads keep their working set resident (Fig. 8b) while uniform
     scans thrash (Fig. 11). *)
  epc_pages : int option;
  (* Byte-per-page residency map, grown on demand: workloads address at
     most a few GB of simulated memory, so direct indexing beats any hash
     probe and the whole array stays cache-resident. *)
  mutable resident : Bytes.t; (* page -> absent / unref / referenced *)
  mutable nresident : int;
  fifo : Ring.t;
  mutable swaps : int;
}

let absent = '\000'
let unref = '\001'
let referenced = '\002'

let create ~clock ~cost ~rng ~engine ?(llc_bytes = 8 * 1024 * 1024)
    ?(sample_cap = 262_144) ?(translation = One_level) () =
  {
    translation;
    tlb = Tlb.create (Rng.create ~seed:17L);
    clock;
    cost;
    rng;
    engine;
    cache = Cache.create ~size_bytes:llc_bytes ();
    llc_bytes;
    sample_cap;
    seq_miss =
      (cost.dram_seq_miss
      +
      match engine with
      | Mem_crypto.Plain -> 0
      | Mem_crypto.Sme -> cost.sme_seq_extra
      | Mem_crypto.Mee _ -> cost.mee_seq_extra);
    dep_miss =
      (cost.cache_miss_dram
      +
      match engine with
      | Mem_crypto.Plain -> 0
      | Mem_crypto.Sme -> cost.sme_miss_extra
      | Mem_crypto.Mee _ -> cost.mee_miss_extra);
    tree_extra =
      (match engine with
      | Mem_crypto.Plain | Mem_crypto.Sme -> 0
      | Mem_crypto.Mee _ -> cost.mee_tree_levels * cost.mee_tree_level);
    walk_cost =
      (match translation with
      | One_level -> 4 * cost.pt_level_access
      | Nested -> 12 * cost.pt_level_access);
    epc_pages =
      Option.map (fun b -> b / Addr.page_size) (Mem_crypto.epc_limit engine);
    resident = Bytes.make 16_384 absent;
    nresident = 0;
    fifo = Ring.create ();
    swaps = 0;
  }

let engine t = t.engine

let resident_state t page =
  if page < Bytes.length t.resident then Bytes.unsafe_get t.resident page
  else absent

let ensure_resident_slot t page =
  let len = Bytes.length t.resident in
  if page >= len then begin
    let rec fit n = if n > page then n else fit (n * 2) in
    let b = Bytes.make (fit len) absent in
    Bytes.blit t.resident 0 b 0 len;
    t.resident <- b
  end

(* EPC paging charge for one touched page; 2x: EWB the victim, ELDU ours.
   Eviction is CLOCK: referenced pages get a second chance. *)
let evict_one t =
  let rec spin guard =
    match Ring.pop t.fifo with
    | -1 -> ()
    | victim ->
        let s = resident_state t victim in
        if s = absent then spin guard (* stale queue entry *)
        else if s = referenced && guard > 0 then begin
          Bytes.unsafe_set t.resident victim unref;
          Ring.push t.fifo victim;
          spin (guard - 1)
        end
        else begin
          Bytes.unsafe_set t.resident victim absent;
          t.nresident <- t.nresident - 1
        end
  in
  spin t.nresident

let epc_charge t page =
  match t.epc_pages with
  | None -> 0
  | Some capacity ->
      if resident_state t page <> absent then begin
        Bytes.unsafe_set t.resident page referenced;
        0
      end
      else begin
        let swap_cost =
          if t.nresident >= capacity then begin
            evict_one t;
            t.swaps <- t.swaps + 1;
            2 * t.cost.epc_swap_page
          end
          else 0
        in
        ensure_resident_slot t page;
        Bytes.unsafe_set t.resident page unref;
        t.nresident <- t.nresident + 1;
        Ring.push t.fifo page;
        swap_cost
      end

(* What lines 2..k of a page-run would do to the EPC state: re-mark the
   now-resident page referenced.  One byte store replaces the k-1
   identical probes of the per-line walk. *)
let epc_rehit t page =
  match t.epc_pages with
  | None -> ()
  | Some _ ->
      if resident_state t page <> absent then
        Bytes.unsafe_set t.resident page referenced

(* Data-TLB charge for the page containing [addr]: hit is ~free; a miss
   walks one set of tables natively/HU, or the two-dimensional nested
   tables for GU/P.  The sim's TLB is private and cost-only — entries are
   never read back — so one shared synthetic entry serves every insert
   instead of allocating a record per miss. *)
let synthetic_entry = { Tlb.frame = 0; perms = Page_table.rw; pte = None }

let tlb_cost t page =
  if Tlb.hit_test t.tlb ~vpn:page then t.cost.tlb_hit
  else begin
    Tlb.insert t.tlb ~vpn:page synthetic_entry;
    t.walk_cost
  end

let tlb_flush t = Tlb.flush t.tlb

(* LLC charge for one line; [seq] selects the prefetch-friendly cost
   profile (tree nodes and next lines prefetched) vs. the dependent-load
   one. *)
let cache_cost t ~seq ~write addr =
  match Cache.access t.cache ~write addr with
  | Cache.Hit -> t.cost.cache_hit
  | Cache.Miss { evicted_dirty } ->
      let wb = if evicted_dirty then 2 else 1 in
      if seq then t.seq_miss * wb else (t.dep_miss * wb) + t.tree_extra

(* One line access, full price: EPC residency + TLB + LLC. *)
let line_cost t ~seq ~write addr =
  let page = Addr.page_of addr in
  let epc = epc_charge t page in
  let tlb = tlb_cost t page in
  epc + tlb + cache_cost t ~seq ~write addr

let line = 64

(* Charge [k] consecutive lines starting at [addr], all inside the page
   numbered [page].  Only the first line pays a real EPC/TLB lookup; the
   remaining k-1 are deterministic hits (the page was made resident and
   TLB-inserted by the first line, and nothing between two lines of the
   same run can evict either), so they are accounted analytically:
   k-1 TLB-hit charges, stats bumped in bulk, referenced bit set once.
   TLB hits draw no randomness and the per-line Cache.access below is the
   only remaining stateful step, so cycles, RNG stream, swap counts and
   hit statistics are identical to the per-line reference walk.
   [first_seq] is the cost profile of the leading line ([false] for a
   dependent pointer chase into an object), [rest_seq] of the others. *)
let page_run_cost t ~page ~first_seq ~rest_seq ~write addr k =
  let epc = epc_charge t page in
  let tlb = tlb_cost t page in
  let acc = ref (epc + tlb + cache_cost t ~seq:first_seq ~write addr) in
  if k > 1 then begin
    epc_rehit t page;
    Tlb.note_hits t.tlb (k - 1);
    acc := !acc + ((k - 1) * t.cost.tlb_hit);
    for j = 1 to k - 1 do
      acc := !acc + cache_cost t ~seq:rest_seq ~write (addr + (j * line))
    done
  end;
  !acc

(* Number of stride-64 accesses starting at [addr] that stay on its page. *)
let lines_on_page addr =
  let to_next = Addr.base_of_page (Addr.page_of addr + 1) - addr in
  (to_next + line - 1) / line

let scale ~acc ~simulated ~total =
  if simulated = total then acc
  else
    int_of_float
      (float_of_int acc *. float_of_int total /. float_of_int simulated)

let seq_scan t ~base ~bytes ~write =
  if bytes > 0 then begin
    let lines = (bytes + line - 1) / line in
    let simulated = min lines t.sample_cap in
    let acc = ref 0 in
    let i = ref 0 in
    while !i < simulated do
      let addr = base + (!i * line) in
      let page = Addr.page_of addr in
      let k = min (lines_on_page addr) (simulated - !i) in
      acc :=
        !acc + page_run_cost t ~page ~first_seq:true ~rest_seq:true ~write addr k;
      i := !i + k
    done;
    (* Scale the sampled window cost up to the full scan. *)
    Cycles.tick t.clock (scale ~acc:!acc ~simulated ~total:lines)
  end

let random_access t ~base ~working_set ~count ~write =
  if count > 0 && working_set > 0 then begin
    let lines_in_ws = max 1 (working_set / line) in
    let simulated = min count t.sample_cap in
    let acc = ref 0 in
    for _ = 1 to simulated do
      let addr = base + (Rng.int t.rng lines_in_ws * line) in
      acc := !acc + line_cost t ~seq:false ~write addr
    done;
    Cycles.tick t.clock (scale ~acc:!acc ~simulated ~total:count)
  end

let touch_bytes t ~addr ~len ~write =
  (* The first line of an object is a dependent load (pointer chase into
     it); the rest streams under the prefetcher. *)
  if len > 0 then begin
    let first = addr / line and last = (addr + len - 1) / line in
    let acc = ref 0 in
    let l = ref first in
    while !l <= last do
      let a = !l * line in
      let page = Addr.page_of a in
      let k = min (lines_on_page a) (last - !l + 1) in
      let first_seq = !l <> first in
      acc := !acc + page_run_cost t ~page ~first_seq ~rest_seq:true ~write a k;
      l := !l + k
    done;
    Cycles.tick t.clock !acc
  end

let touch_dependent t ~addr ~len ~write =
  if len > 0 then begin
    let first = addr / line and last = (addr + len - 1) / line in
    let acc = ref 0 in
    let l = ref first in
    while !l <= last do
      let a = !l * line in
      let page = Addr.page_of a in
      let k = min (lines_on_page a) (last - !l + 1) in
      acc :=
        !acc + page_run_cost t ~page ~first_seq:false ~rest_seq:false ~write a k;
      l := !l + k
    done;
    Cycles.tick t.clock !acc
  end

(* --- per-line reference walks ------------------------------------------
   The naive implementations the fast paths must match bit-for-bit:
   one EPC probe + one TLB probe + one cache access per line.  Kept as
   the specification oracle for the randomized equivalence tests; not
   used on any production path. *)

let seq_scan_reference t ~base ~bytes ~write =
  if bytes > 0 then begin
    let lines = (bytes + line - 1) / line in
    let simulated = min lines t.sample_cap in
    let acc = ref 0 in
    for i = 0 to simulated - 1 do
      acc := !acc + line_cost t ~seq:true ~write (base + (i * line))
    done;
    Cycles.tick t.clock (scale ~acc:!acc ~simulated ~total:lines)
  end

let touch_bytes_reference t ~addr ~len ~write =
  if len > 0 then begin
    let first = addr / line and last = (addr + len - 1) / line in
    let acc = ref (line_cost t ~seq:false ~write (first * line)) in
    for l = first + 1 to last do
      acc := !acc + line_cost t ~seq:true ~write (l * line)
    done;
    Cycles.tick t.clock !acc
  end

let touch_dependent_reference t ~addr ~len ~write =
  if len > 0 then begin
    let first = addr / line and last = (addr + len - 1) / line in
    let acc = ref 0 in
    for l = first to last do
      acc := !acc + line_cost t ~seq:false ~write (l * line)
    done;
    Cycles.tick t.clock !acc
  end

let flush_all t = Cache.flush_all t.cache
let swaps t = t.swaps
let tlb_stats t = (Tlb.lookups t.tlb, Tlb.hits t.tlb)
let cache_stats t = (Cache.accesses t.cache, Cache.misses t.cache)
let resident_pages t = t.nresident

let avg_access_cycles t ~pattern ~working_set =
  (* Private replica so the measurement does not disturb [t].  The scan is
     unsampled (cap >= the buffer) so EPC-residency effects are real, and
     the random pass replays the exact same address sequence it warmed
     with — the dependent pointer chain lat_mem_rd-style scans build. *)
  let clock = Cycles.create () in
  let full_cap = max t.sample_cap ((working_set / line) + 1) in
  let probe =
    create ~clock ~cost:t.cost
      ~rng:(Rng.create ~seed:7L)
      ~engine:t.engine ~llc_bytes:t.llc_bytes ~sample_cap:full_cap ()
  in
  let count = max 4096 (working_set / line) in
  let run () =
    Rng.set_seed probe.rng 7L;
    match pattern with
    | `Seq -> seq_scan probe ~base:0 ~bytes:working_set ~write:false
    | `Random ->
        random_access probe ~base:0 ~working_set ~count ~write:false
  in
  run ();
  (* Warm pass done; measure the second pass. *)
  let before = Cycles.now clock in
  run ();
  let accesses =
    match pattern with
    | `Seq -> max 1 ((working_set + line - 1) / line)
    | `Random -> count
  in
  float_of_int (Cycles.now clock - before) /. float_of_int accesses
