(* Unit and property tests for the hardware substrate. *)

open Hyperenclave.Hw

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Cycles ----------------------------------------------------------------- *)

let test_cycles () =
  let clock = Cycles.create () in
  check "fresh clock" 0 (Cycles.now clock);
  Cycles.tick clock 42;
  check "tick" 42 (Cycles.now clock);
  let (), elapsed = Cycles.time clock (fun () -> Cycles.tick clock 100) in
  check "time" 100 elapsed;
  check "elapsed" 142 (Cycles.elapsed clock ~since:0);
  Cycles.reset clock;
  check "reset" 0 (Cycles.now clock)

(* --- Rng ---------------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done;
  let c = Rng.create ~seed:8L in
  check_bool "different seed differs" false (Rng.next_int64 a = Rng.next_int64 c)

let test_rng_bounds () =
  let rng = Rng.create ~seed:1L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_bool "int in range" true (v >= 0 && v < 17);
    let f = Rng.float rng 2.5 in
    check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_set_seed () =
  let rng = Rng.create ~seed:3L in
  let first = Rng.next_int64 rng in
  ignore (Rng.next_int64 rng);
  Rng.set_seed rng 3L;
  Alcotest.(check int64) "replay after set_seed" first (Rng.next_int64 rng)

(* The splitmix64 reference outputs: every key share, nonce and secret
   in the simulation comes from this stream, so its layout may change
   but its values may not. *)
let test_rng_known_answer () =
  let first3 seed =
    let rng = Rng.create ~seed in
    List.init 3 (fun _ -> Rng.next_int64 rng)
  in
  Alcotest.(check (list int64))
    "seed 0"
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]
    (first3 0L);
  Alcotest.(check (list int64))
    "seed 42"
    [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L ]
    (first3 42L);
  (* A checkpoint taken mid-stream replays the rest of it. *)
  let rng = Rng.create ~seed:42L in
  ignore (Rng.next_int64 rng : int64);
  let mark = Rng.state rng in
  let ahead = List.init 2 (fun _ -> Rng.next_int64 rng) in
  Rng.set_seed rng mark;
  Alcotest.(check (list int64))
    "state/set_seed replays" ahead
    (List.init 2 (fun _ -> Rng.next_int64 rng));
  (* A split child is a fresh generator seeded with the parent's next
     output, and the parent moves past that output. *)
  let parent = Rng.create ~seed:0L and twin = Rng.create ~seed:0L in
  let child = Rng.split parent in
  let seeded = Rng.create ~seed:(Rng.next_int64 twin) in
  Alcotest.(check (list int64))
    "split = create ~seed:next"
    (List.init 3 (fun _ -> Rng.next_int64 seeded))
    (List.init 3 (fun _ -> Rng.next_int64 child));
  Alcotest.(check int64) "parent advanced" 0x6E789E6AA1B965F4L
    (Rng.next_int64 parent)

(* Every key share, nonce and secret is drawn here: a draw allocates
   nothing, and [bytes] only its result (32 bytes: 6 words). *)
let test_rng_allocation () =
  let rng = Rng.create ~seed:9L in
  let words f =
    ignore (f () : unit);
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    (Gc.minor_words () -. w0) /. 1000.
  in
  let sink = ref 0 in
  Alcotest.(check (float 0.)) "Rng.int words" 0.
    (words (fun () -> sink := !sink + Rng.int rng 1000));
  Alcotest.(check (float 0.)) "Rng.bool words" 0.
    (words (fun () -> if Rng.bool rng then incr sink));
  Alcotest.(check (float 0.)) "Rng.bytes 32 words" 6.
    (words (fun () -> ignore (Sys.opaque_identity (Rng.bytes rng 32))))

let test_rng_shuffle () =
  let rng = Rng.create ~seed:5L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* --- Addr ---------------------------------------------------------------------- *)

let test_addr () =
  check "page_of" 2 (Addr.page_of 0x2fff);
  check "base_of_page" 0x2000 (Addr.base_of_page 2);
  check "offset" 0xfff (Addr.offset 0x2fff);
  check "align_up" 0x3000 (Addr.align_up 0x2001);
  check "align_up aligned" 0x2000 (Addr.align_up 0x2000);
  check "align_down" 0x2000 (Addr.align_down 0x2fff);
  check_bool "is_aligned" true (Addr.is_aligned 0x4000);
  check "pages_spanned one" 1 (Addr.pages_spanned ~addr:0x10 ~len:16);
  check "pages_spanned cross" 2 (Addr.pages_spanned ~addr:0xff8 ~len:16);
  check "pages_spanned empty" 0 (Addr.pages_spanned ~addr:0 ~len:0);
  check "index level0" 1 (Addr.index ~level:0 0x1000);
  check "index level1" 1 (Addr.index ~level:1 (1 lsl 21))

(* --- Phys_mem -------------------------------------------------------------------- *)

let test_phys_mem () =
  let mem = Phys_mem.create ~size_bytes:(64 * 4096) in
  check "frames" 64 (Phys_mem.frames mem);
  check "untouched reads zero" 0 (Phys_mem.read_u8 mem 0x1234);
  Phys_mem.write_u8 mem 0x1234 0xAB;
  check "write/read u8" 0xAB (Phys_mem.read_u8 mem 0x1234);
  Phys_mem.write_u64 mem 0xffc 0x1122334455667788L;
  Alcotest.(check int64)
    "u64 across page boundary" 0x1122334455667788L
    (Phys_mem.read_u64 mem 0xffc);
  let data = Bytes.of_string "hello, physical memory" in
  Phys_mem.write_bytes mem 0x1ff0 data;
  Alcotest.(check string)
    "bytes across boundary" "hello, physical memory"
    (Bytes.to_string (Phys_mem.read_bytes mem 0x1ff0 (Bytes.length data)));
  Phys_mem.blit mem ~src:0x1ff0 ~dst:0x5000 ~len:(Bytes.length data);
  Alcotest.(check string)
    "blit" "hello, physical memory"
    (Bytes.to_string (Phys_mem.read_bytes mem 0x5000 (Bytes.length data)));
  Phys_mem.zero_page mem ~frame:5;
  check "zero_page scrubs" 0 (Phys_mem.read_u8 mem 0x5000);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Phys_mem: access [0x40000, +1) outside 0x40000")
    (fun () -> ignore (Phys_mem.read_u8 mem (64 * 4096)))

(* --- Frame_alloc ------------------------------------------------------------------- *)

let test_frame_alloc () =
  let fa = Frame_alloc.create ~base_frame:100 ~nframes:8 in
  check "total" 8 (Frame_alloc.total fa);
  let f1 = Frame_alloc.alloc fa in
  check_bool "allocated in range" true (Frame_alloc.owns fa f1);
  check "used" 1 (Frame_alloc.used_count fa);
  Frame_alloc.free fa f1;
  check "freed" 0 (Frame_alloc.used_count fa);
  Alcotest.check_raises "double free"
    (Invalid_argument "Frame_alloc.free: double free") (fun () ->
      Frame_alloc.free fa f1);
  let all = List.init 8 (fun _ -> Frame_alloc.alloc fa) in
  check "exhausted" 0 (Frame_alloc.free_count fa);
  (try
     ignore (Frame_alloc.alloc fa);
     Alcotest.fail "expected Out_of_frames"
   with Frame_alloc.Out_of_frames -> ());
  List.iter (Frame_alloc.free fa) all;
  let base = Frame_alloc.alloc_contiguous fa 8 in
  check "contiguous run at base" 100 base

let test_frame_alloc_contiguous_fragmented () =
  let fa = Frame_alloc.create ~base_frame:0 ~nframes:8 in
  let all = List.init 8 (fun _ -> Frame_alloc.alloc fa) in
  (* Free everything except frame 3, splitting the space 0-2 / 4-7. *)
  List.iter (fun f -> if f <> 3 then Frame_alloc.free fa f) all;
  let run = Frame_alloc.alloc_contiguous fa 4 in
  check "finds the 4-frame hole" 4 run;
  (try
     ignore (Frame_alloc.alloc_contiguous fa 4);
     Alcotest.fail "expected Out_of_frames"
   with Frame_alloc.Out_of_frames -> ())

(* --- Page_table --------------------------------------------------------------------- *)

let test_page_table () =
  let pt = Page_table.create () in
  check "empty" 0 (Page_table.mapped_count pt);
  Page_table.map pt ~vpn:0x12345 ~frame:77 ~perms:Page_table.rw;
  (match Page_table.lookup pt ~vpn:0x12345 with
  | Some e ->
      check "frame" 77 e.Page_table.frame;
      check_bool "accessed starts clear" false e.Page_table.accessed
  | None -> Alcotest.fail "mapping missing");
  check "mapped" 1 (Page_table.mapped_count pt);
  let levels = ref 0 in
  ignore (Page_table.walk pt ~vpn:0x12345 ~levels_visited:levels);
  check "walk visits 4 levels" 4 !levels;
  Page_table.protect pt ~vpn:0x12345 ~perms:Page_table.ro;
  (match Page_table.lookup pt ~vpn:0x12345 with
  | Some e -> check_bool "write revoked" false e.Page_table.perms.Page_table.write
  | None -> Alcotest.fail "mapping missing");
  check_bool "reverse lookup" true
    (Page_table.find_vpn_of_frame pt ~frame:77 = Some 0x12345);
  Page_table.unmap pt ~vpn:0x12345;
  check "unmapped" 0 (Page_table.mapped_count pt);
  Alcotest.check_raises "protect missing" Not_found (fun () ->
      Page_table.protect pt ~vpn:1 ~perms:Page_table.rw);
  Alcotest.check_raises "negative identity range"
    (Invalid_argument "Page_table.map_identity") (fun () ->
      Page_table.map_identity pt ~first_frame:0 ~nframes:(-1)
        ~perms:Page_table.rw)

let test_page_table_iter () =
  let pt = Page_table.create () in
  let vpns = [ 1; 513; 0x40000; 0x12345678 ] in
  List.iter (fun vpn -> Page_table.map pt ~vpn ~frame:vpn ~perms:Page_table.rw) vpns;
  let seen = ref [] in
  Page_table.iter pt (fun ~vpn e ->
      check "identity frame" vpn e.Page_table.frame;
      seen := vpn :: !seen);
  Alcotest.(check (list int)) "all visited" (List.sort compare vpns)
    (List.sort compare !seen);
  check_bool "multiple radix nodes" true (Page_table.table_pages pt > 4)

(* [map_identity] builds each leaf on first touch; every reader must see
   the table a [map] per frame builds.  A case is two ranges around a
   gap, which mostly start and end off a leaf boundary, over a base at 0
   or straddling a level-1 table boundary (0x40000), then a run of
   operations applied to both tables; a map may land in an unbuilt
   leaf.  A walk sets accessed (and, for a
   write, dirty) on the entry it finds, as the MMU does.  Every result,
   [levels_visited], [mapped_count], [table_pages] and [generation] must
   agree after each operation, and every entry at the end. *)
let identity_range_equivalence =
  let open QCheck in
  let op = Gen.(triple (int_bound 7) (int_bound 3583) (int_bound 100_000)) in
  let case =
    Gen.(
      pair
        (quad (oneofl [ 0; 0x40000 - 1500 ]) (int_bound 1000) (int_bound 1500)
           (pair (int_bound 600) (int_bound 1000)))
        (list_size (int_range 1 60) op))
  in
  let print ((base, a, n, (gap, m)), ops) =
    Printf.sprintf "base=0x%x a=%d n=%d gap=%d m=%d ops=[%s]" base a n gap m
      (String.concat "; "
         (List.map (fun (k, v, x) -> Printf.sprintf "(%d,%d,%d)" k v x) ops))
  in
  let entry_state = function
    | None -> None
    | Some (e : Page_table.entry) ->
        Some (e.frame, e.perms, e.accessed, e.dirty)
  in
  let entries pt =
    let l = ref [] in
    Page_table.iter pt (fun ~vpn e -> l := (vpn, entry_state (Some e)) :: !l);
    List.rev !l
  in
  Test.make ~name:"identity range equals per-vpn map" ~count:200
    (make ~print case)
    (fun ((base, a, n, (gap, m)), ops) ->
      let lazy_pt = Page_table.create () and eager = Page_table.create () in
      let first = base + a in
      let second = first + n + gap in
      List.iter
        (fun (first_frame, nframes) ->
          Page_table.map_identity lazy_pt ~first_frame ~nframes
            ~perms:Page_table.rwx;
          for vpn = first_frame to first_frame + nframes - 1 do
            Page_table.map eager ~vpn ~frame:vpn ~perms:Page_table.rwx
          done)
        [ (first, n); (second, m) ];
      let snaps = ref [] in
      let agree what x y =
        if x <> y then Test.fail_reportf "%s differs" what
      in
      let both f = (f lazy_pt, f eager) in
      let step (kind, v, x) =
        let vpn = base + v in
        (match kind with
        | 0 ->
            let walk pt =
              let levels = ref 0 in
              let e = Page_table.walk pt ~vpn ~levels_visited:levels in
              Option.iter
                (fun (e : Page_table.entry) ->
                  e.accessed <- true;
                  if x land 1 = 1 then e.dirty <- true)
                e;
              (entry_state e, !levels)
            in
            let l, e = both walk in
            agree "walk" l e
        | 1 ->
            let l, e = both (fun pt -> entry_state (Page_table.lookup pt ~vpn)) in
            agree "lookup" l e
        | 2 ->
            let perms = if x land 1 = 1 then Page_table.ro else Page_table.rx in
            let l, e =
              both (fun pt ->
                  match Page_table.protect pt ~vpn ~perms with
                  | () -> true
                  | exception Not_found -> false)
            in
            agree "protect" l e
        | 3 -> ignore (both (fun pt -> Page_table.unmap pt ~vpn))
        | 4 ->
            ignore
              (both (fun pt -> Page_table.map pt ~vpn ~frame:x ~perms:Page_table.rw))
        | 5 ->
            let l, e = both entries in
            agree "iter" l e
        | 6 -> snaps := both Page_table.snapshot :: !snaps
        | _ -> (
            match !snaps with
            | (l, e) :: rest ->
                Page_table.restore lazy_pt l;
                Page_table.restore eager e;
                snaps := rest
            | [] -> ()));
        agree "mapped_count" (Page_table.mapped_count lazy_pt)
          (Page_table.mapped_count eager);
        agree "table_pages" (Page_table.table_pages lazy_pt)
          (Page_table.table_pages eager);
        agree "generation" (Page_table.generation lazy_pt)
          (Page_table.generation eager)
      in
      List.iter step ops;
      agree "entries" (entries lazy_pt) (entries eager);
      true)

(* --- Tlb ---------------------------------------------------------------------------- *)

let test_tlb () =
  let tlb = Tlb.create ~capacity:4 (Rng.create ~seed:2L) in
  Tlb.insert tlb ~vpn:1 { Tlb.frame = 10; perms = Page_table.rw; pte = None };
  (match Tlb.lookup tlb ~vpn:1 with
  | Some e -> check "hit frame" 10 e.Tlb.frame
  | None -> Alcotest.fail "expected hit");
  check_bool "miss" true (Tlb.lookup tlb ~vpn:2 = None);
  for vpn = 2 to 10 do
    Tlb.insert tlb ~vpn { Tlb.frame = vpn; perms = Page_table.rw; pte = None }
  done;
  check_bool "bounded" true (Tlb.entries tlb <= 4);
  Tlb.invalidate tlb ~vpn:10;
  check_bool "invalidate" true (Tlb.lookup tlb ~vpn:10 = None);
  Tlb.flush tlb;
  check "flushed" 0 (Tlb.entries tlb);
  check_bool "stats counted" true (Tlb.lookups tlb > 0 && Tlb.hits tlb >= 1)

(* --- Mmu ---------------------------------------------------------------------------- *)

let mmu_fixture ~nested () =
  let clock = Cycles.create () in
  let gpt = Page_table.create () in
  let npt = if nested then Some (Page_table.create ()) else None in
  let mmu =
    match npt with
    | Some npt ->
        Mmu.create ~clock ~cost:Cost_model.default ~rng:(Rng.create ~seed:3L)
          ~gpt ~npt ()
    | None ->
        Mmu.create ~clock ~cost:Cost_model.default ~rng:(Rng.create ~seed:3L)
          ~gpt ()
  in
  (clock, gpt, npt, mmu)

let test_mmu_translate () =
  let _clock, gpt, _, mmu = mmu_fixture ~nested:false () in
  Page_table.map gpt ~vpn:5 ~frame:9 ~perms:Page_table.rw;
  check "translate" ((9 * 4096) + 0x123)
    (Mmu.translate mmu ~access:Mmu.Read ~user:true ((5 * 4096) + 0x123));
  (* second access hits the TLB *)
  check "tlb path" (9 * 4096)
    (Mmu.translate mmu ~access:Mmu.Read ~user:true (5 * 4096));
  (match Page_table.lookup gpt ~vpn:5 with
  | Some e -> Alcotest.(check bool) "accessed set" true e.Page_table.accessed
  | None -> Alcotest.fail "missing");
  ignore (Mmu.translate mmu ~access:Mmu.Write ~user:true (5 * 4096));
  (match Page_table.lookup gpt ~vpn:5 with
  | Some e -> Alcotest.(check bool) "dirty set" true e.Page_table.dirty
  | None -> Alcotest.fail "missing")

(* The TLB caches the leaf PTE so a warm-TLB write sets accessed/dirty
   through the cached reference instead of re-walking the tables; this
   pins down that the cached reference IS the live PTE and that the
   hardware-visible bit semantics survived the optimization. *)
let test_mmu_cached_pte () =
  let _clock, gpt, _, mmu = mmu_fixture ~nested:false () in
  Page_table.map gpt ~vpn:6 ~frame:11 ~perms:Page_table.rw;
  ignore (Mmu.translate mmu ~access:Mmu.Read ~user:true (6 * 4096));
  let pte =
    match Page_table.lookup gpt ~vpn:6 with
    | Some e -> e
    | None -> Alcotest.fail "missing pte"
  in
  check_bool "accessed after warm-up read" true pte.Page_table.accessed;
  check_bool "clean after warm-up read" false pte.Page_table.dirty;
  (* The TLB entry must carry the very PTE record the walker filled from. *)
  (match Tlb.lookup (Mmu.tlb mmu) ~vpn:6 with
  | Some { Tlb.pte = Some cached; _ } ->
      check_bool "TLB caches the live PTE" true (cached == pte)
  | Some { Tlb.pte = None; _ } -> Alcotest.fail "TLB entry lost its PTE"
  | None -> Alcotest.fail "translation not cached");
  (* Warm read hits keep the page clean... *)
  ignore (Mmu.translate mmu ~access:Mmu.Read ~user:true ((6 * 4096) + 8));
  check_bool "read hits leave page clean" false pte.Page_table.dirty;
  (* ...and a warm write dirties it through the cached reference. *)
  let hits_before = Tlb.hits (Mmu.tlb mmu) in
  check "warm write translates" ((11 * 4096) + 16)
    (Mmu.translate mmu ~access:Mmu.Write ~user:true ((6 * 4096) + 16));
  check_bool "write was a TLB hit" true (Tlb.hits (Mmu.tlb mmu) > hits_before);
  check_bool "dirty via cached PTE" true pte.Page_table.dirty;
  check_bool "accessed via cached PTE" true pte.Page_table.accessed

let test_mmu_faults () =
  let _clock, gpt, _, mmu = mmu_fixture ~nested:false () in
  (try
     ignore (Mmu.translate mmu ~access:Mmu.Read ~user:true 0x9000);
     Alcotest.fail "expected not-present fault"
   with Mmu.Page_fault f ->
     check_bool "not present" false f.Mmu.present);
  Page_table.map gpt ~vpn:7 ~frame:3 ~perms:Page_table.ro;
  (try
     ignore (Mmu.translate mmu ~access:Mmu.Write ~user:true (7 * 4096));
     Alcotest.fail "expected protection fault"
   with Mmu.Page_fault f -> check_bool "present" true f.Mmu.present);
  Page_table.map gpt ~vpn:8 ~frame:4 ~perms:Page_table.kernel_rw;
  (try
     ignore (Mmu.translate mmu ~access:Mmu.Read ~user:true (8 * 4096));
     Alcotest.fail "expected user fault"
   with Mmu.Page_fault _ -> ());
  ignore (Mmu.translate mmu ~access:Mmu.Read ~user:false (8 * 4096))

let test_mmu_nested () =
  let _clock, gpt, npt, mmu = mmu_fixture ~nested:true () in
  let npt = Option.get npt in
  Page_table.map gpt ~vpn:5 ~frame:50 ~perms:Page_table.rw;
  (* No nested mapping for gfn 50 yet: requirement R-1 in action. *)
  (try
     ignore (Mmu.translate mmu ~access:Mmu.Read ~user:true (5 * 4096));
     Alcotest.fail "expected NPT violation"
   with Mmu.Npt_violation { gfn; _ } -> check "violating gfn" 50 gfn);
  Page_table.map npt ~vpn:50 ~frame:90 ~perms:Page_table.rwx;
  check "nested translate" (90 * 4096)
    (Mmu.translate mmu ~access:Mmu.Read ~user:true (5 * 4096))

let test_mmu_switch_flushes () =
  let _clock, gpt, _, mmu = mmu_fixture ~nested:false () in
  Page_table.map gpt ~vpn:5 ~frame:9 ~perms:Page_table.rw;
  ignore (Mmu.translate mmu ~access:Mmu.Read ~user:true (5 * 4096));
  Alcotest.(check bool) "tlb warm" true (Tlb.entries (Mmu.tlb mmu) > 0);
  Mmu.switch_context mmu ~gpt:(Page_table.create ()) ();
  check "tlb flushed on switch" 0 (Tlb.entries (Mmu.tlb mmu));
  (* The old translation must not leak into the new context. *)
  try
    ignore (Mmu.translate mmu ~access:Mmu.Read ~user:true (5 * 4096));
    Alcotest.fail "stale translation survived the switch"
  with Mmu.Page_fault _ -> ()

(* --- Cache ---------------------------------------------------------------------------- *)

let test_cache () =
  let cache = Cache.create ~size_bytes:(64 * 1024) () in
  (match Cache.access cache ~write:false 0x1000 with
  | Cache.Miss _ -> ()
  | Cache.Hit -> Alcotest.fail "cold access should miss");
  (match Cache.access cache ~write:false 0x1000 with
  | Cache.Hit -> ()
  | Cache.Miss _ -> Alcotest.fail "warm access should hit");
  (match Cache.access cache ~write:false 0x1010 with
  | Cache.Hit -> () (* same 64-byte line *)
  | Cache.Miss _ -> Alcotest.fail "same line should hit");
  Cache.flush_line cache 0x1000;
  (match Cache.access cache ~write:false 0x1000 with
  | Cache.Miss { evicted_dirty } ->
      check_bool "clean after flush" false evicted_dirty
  | Cache.Hit -> Alcotest.fail "flushed line should miss");
  ignore (Cache.access cache ~write:true 0x2000);
  Cache.flush_all cache;
  check_bool "stats" true (Cache.accesses cache > 0 && Cache.misses cache > 0)

let test_cache_capacity () =
  let cache = Cache.create ~size_bytes:(16 * 1024) ~ways:2 () in
  (* Stream 64 KB (4x capacity), then re-stream: the first pass must have
     been largely evicted. *)
  for i = 0 to 1023 do
    ignore (Cache.access cache ~write:false (i * 64))
  done;
  Cache.reset_stats cache;
  for i = 0 to 1023 do
    ignore (Cache.access cache ~write:false (i * 64))
  done;
  check_bool "capacity misses on re-stream" true (Cache.misses cache > 512)

(* --- Mem_crypto -------------------------------------------------------------------------- *)

let test_mem_crypto_costs () =
  let m = Cost_model.default in
  let plain = Mem_crypto.miss_cost m Mem_crypto.Plain ~dirty_evict:false in
  let sme = Mem_crypto.miss_cost m Mem_crypto.Sme ~dirty_evict:false in
  let mee =
    Mem_crypto.miss_cost m (Mem_crypto.Mee { epc_bytes = 1 lsl 20 })
      ~dirty_evict:false
  in
  check_bool "plain < sme < mee" true (plain < sme && sme < mee);
  check_bool "dirty eviction costs more" true
    (Mem_crypto.miss_cost m Mem_crypto.Sme ~dirty_evict:true > sme);
  check_bool "epc limit" true
    (Mem_crypto.epc_limit (Mem_crypto.Mee { epc_bytes = 42 }) = Some 42);
  check_bool "no limit for sme" true (Mem_crypto.epc_limit Mem_crypto.Sme = None)

(* --- Iommu ---------------------------------------------------------------------------------- *)

let test_iommu () =
  let mem = Phys_mem.create ~size_bytes:(16 * 4096) in
  let iommu = Iommu.create () in
  Iommu.attach iommu ~device:"nic";
  (try
     Iommu.dma_write iommu ~device:"nic" mem ~addr:0x1000 (Bytes.of_string "x");
     Alcotest.fail "deny-all table should block DMA"
   with Iommu.Dma_blocked { frame; _ } -> check "blocked frame" 1 frame);
  Iommu.grant iommu ~device:"nic" ~first_frame:1 ~nframes:2;
  Iommu.dma_write iommu ~device:"nic" mem ~addr:0x1000 (Bytes.of_string "ok");
  Alcotest.(check string)
    "dma read back" "ok"
    (Bytes.to_string (Iommu.dma_read iommu ~device:"nic" mem ~addr:0x1000 ~len:2));
  Iommu.revoke_everywhere iommu ~first_frame:1 ~nframes:2;
  (try
     ignore (Iommu.dma_read iommu ~device:"nic" mem ~addr:0x1000 ~len:2);
     Alcotest.fail "revoked range should block"
   with Iommu.Dma_blocked _ -> ());
  let allowed device frame = Iommu.allowed iommu ~device ~frame in
  let frames device lo hi = List.init (hi - lo) (fun i -> allowed device (lo + i)) in
  (* A grant past the end of the table grows it and keeps what was
     granted before. *)
  Iommu.grant iommu ~device:"nic" ~first_frame:0 ~nframes:4;
  Iommu.grant iommu ~device:"nic" ~first_frame:1000 ~nframes:24;
  Alcotest.(check (list bool)) "old grant kept" [ true; true; true; true; false ]
    (frames "nic" 0 5);
  check_bool "grown range mapped" true (allowed "nic" 1000 && allowed "nic" 1023);
  check_bool "gap unmapped" false (allowed "nic" 500);
  check_bool "past the table end" false (allowed "nic" 1024 || allowed "nic" 1_000_000);
  check_bool "negative frame" false (allowed "nic" (-1));
  check_bool "unattached device" false (allowed "gpu" 0);
  (* revoke_everywhere clears a sub-range in every table, clipped to
     each table's size. *)
  Iommu.attach iommu ~device:"disk";
  Iommu.grant iommu ~device:"disk" ~first_frame:0 ~nframes:8;
  Iommu.revoke_everywhere iommu ~first_frame:2 ~nframes:2000;
  Alcotest.(check (list bool)) "nic sub-range revoked" [ true; true; false; false ]
    (frames "nic" 0 4);
  Alcotest.(check (list bool)) "disk sub-range revoked" [ true; true; false; false ]
    (frames "disk" 0 4);
  check_bool "nic tail revoked" false (allowed "nic" 1000);
  Iommu.revoke iommu ~device:"disk" ~first_frame:1 ~nframes:1;
  check_bool "revoke is per device" true (allowed "nic" 1 && not (allowed "disk" 1));
  List.iter
    (fun (what, f) ->
      match f () with
      | () -> Alcotest.failf "%s: negative range accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("grant", fun () -> Iommu.grant iommu ~device:"nic" ~first_frame:(-1) ~nframes:2);
      ("grant", fun () -> Iommu.grant iommu ~device:"nic" ~first_frame:0 ~nframes:(-2));
      ("revoke", fun () -> Iommu.revoke iommu ~device:"nic" ~first_frame:(-4) ~nframes:1);
      ( "revoke_everywhere",
        fun () -> Iommu.revoke_everywhere iommu ~first_frame:0 ~nframes:(-1) );
    ];
  check_bool "refused grant mapped nothing" true (allowed "nic" 0 && not (allowed "nic" 2))

(* --- property tests --------------------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"align_up is aligned and minimal" ~count:500
      (int_bound 1_000_000)
      (fun n ->
        let a = Addr.align_up n in
        Addr.is_aligned a && a >= n && a - n < Addr.page_size);
    Test.make ~name:"page_of inverse of base_of_page" ~count:500
      (int_bound 100_000)
      (fun pn -> Addr.page_of (Addr.base_of_page pn) = pn);
    Test.make ~name:"phys_mem write/read roundtrip" ~count:200
      (pair (int_bound 1000) string)
      (fun (addr, s) ->
        let mem = Phys_mem.create ~size_bytes:(16 * 4096) in
        let data = Bytes.of_string s in
        if Bytes.length data = 0 then true
        else begin
          Phys_mem.write_bytes mem addr data;
          Bytes.equal (Phys_mem.read_bytes mem addr (Bytes.length data)) data
        end);
    Test.make ~name:"page table map/lookup roundtrip" ~count:200
      (small_list (pair (int_bound 0xFFFFFF) (int_bound 0xFFFF)))
      (fun pairs ->
        let pt = Page_table.create () in
        List.iter
          (fun (vpn, frame) -> Page_table.map pt ~vpn ~frame ~perms:Page_table.rw)
          pairs;
        (* last write wins per vpn *)
        let expected = Hashtbl.create 16 in
        List.iter (fun (vpn, frame) -> Hashtbl.replace expected vpn frame) pairs;
        Hashtbl.fold
          (fun vpn frame acc ->
            acc
            &&
            match Page_table.lookup pt ~vpn with
            | Some e -> e.Page_table.frame = frame
            | None -> false)
          expected true);
    Test.make ~name:"frame allocator never hands out a frame twice" ~count:100
      (small_list bool)
      (fun ops ->
        let fa = Frame_alloc.create ~base_frame:0 ~nframes:16 in
        let held = Hashtbl.create 16 in
        List.for_all
          (fun allocate ->
            if allocate then (
              match Frame_alloc.alloc fa with
              | f ->
                  let fresh = not (Hashtbl.mem held f) in
                  Hashtbl.replace held f ();
                  fresh
              | exception Frame_alloc.Out_of_frames ->
                  Hashtbl.length held = 16)
            else
              match Hashtbl.fold (fun f () _ -> Some f) held None with
              | Some f ->
                  Hashtbl.remove held f;
                  Frame_alloc.free fa f;
                  true
              | None -> true)
          ops);
  ]

(* Lookups and updates allocate nothing: the probe is a top-level
   function, not a closure built per call (6 words per [mem] and 12 per
   [set] and [remove] pair with one). *)
let test_fast_table_allocation () =
  let t = Fast_table.create ~dummy:0 () in
  for k = 0 to 99 do
    Fast_table.set t k k
  done;
  let words name f =
    let w0 = Gc.minor_words () in
    for k = 0 to 999 do
      f k
    done;
    let words = Gc.minor_words () -. w0 in
    if words > 0. then
      Alcotest.failf "Fast_table.%s allocated %.0f words over 1,000 calls" name
        words
  in
  words "mem" (fun k -> ignore (Fast_table.mem t (k land 127) : bool));
  words "set" (fun k -> Fast_table.set t (k land 127) k);
  words "remove" (fun k ->
      Fast_table.remove t (k land 127);
      Fast_table.set t (k land 127) k)

(* The slab is built on the first access: an untouched model holds
   none, and flushing it changes nothing, so a model flushed before its
   first access gives every later hit, miss and statistic of one that
   was not. *)
let test_cache_slab_on_first_access () =
  let fresh () = Cache.create ~size_bytes:(64 * 1024) () in
  let flushed = fresh () and plain = fresh () in
  let words c = Obj.reachable_words (Obj.repr c) in
  check_bool "no slab before the first access" true (words plain < 64);
  Cache.flush_all flushed;
  Cache.flush_line flushed 0x1000;
  check_bool "flushes build no slab" true (words flushed < 64);
  check "flushes count nothing" 0
    (Cache.accesses flushed + Cache.misses flushed);
  let rng = Rng.create ~seed:11L and differ = ref 0 in
  for i = 1 to 20_000 do
    let addr = Rng.int rng (256 * 1024) and write = Rng.bool rng in
    if i mod 97 = 0 then begin
      Cache.flush_line flushed addr;
      Cache.flush_line plain addr
    end;
    if Cache.access flushed ~write addr <> Cache.access plain ~write addr then
      incr differ
  done;
  check "results differing" 0 !differ;
  check "accesses" (Cache.accesses plain) (Cache.accesses flushed);
  check "misses" (Cache.misses plain) (Cache.misses flushed);
  check_bool "the first access built the slab" true
    (words plain > Cache.size_bytes plain / 64)

let test_cache_dirty_writeback () =
  let cache = Cache.create ~size_bytes:(4 * 1024) ~ways:1 () in
  ignore (Cache.access cache ~write:true 0x0);
  (* Direct-mapped: an aliasing address evicts the dirty line. *)
  (match Cache.access cache ~write:false 0x10000 with
  | Cache.Miss { evicted_dirty } ->
      Alcotest.(check bool) "dirty eviction reported" true evicted_dirty
  | Cache.Hit -> Alcotest.fail "expected conflict miss");
  match Cache.access cache ~write:false 0x20000 with
  | Cache.Miss { evicted_dirty } ->
      Alcotest.(check bool) "clean eviction reported" false evicted_dirty
  | Cache.Hit -> Alcotest.fail "expected conflict miss"

let test_mem_crypto_hit_uniform () =
  let m = Cost_model.default in
  let engines =
    [ Mem_crypto.Plain; Mem_crypto.Sme; Mem_crypto.Mee { epc_bytes = 1 } ]
  in
  List.iter
    (fun e ->
      Alcotest.(check int)
        "hits cost the same under every engine (plaintext in cache)"
        m.Cost_model.cache_hit (Mem_crypto.hit_cost m e))
    engines;
  Alcotest.(check string) "engine names" "sme-xts" (Mem_crypto.name Mem_crypto.Sme)

let test_iommu_devices () =
  let iommu = Iommu.create () in
  Iommu.attach iommu ~device:"nic";
  Iommu.attach iommu ~device:"disk";
  Iommu.attach iommu ~device:"nic" (* idempotent *);
  Alcotest.(check (list string))
    "device list" [ "disk"; "nic" ]
    (List.sort compare (Iommu.devices iommu));
  Alcotest.check_raises "grant to unattached device" Not_found (fun () ->
      Iommu.grant iommu ~device:"gpu" ~first_frame:0 ~nframes:1)

let test_perms_printer () =
  let show p = Format.asprintf "%a" Page_table.pp_perms p in
  Alcotest.(check string) "rw" "rw-u" (show Page_table.rw);
  Alcotest.(check string) "rx" "r-xu" (show Page_table.rx);
  Alcotest.(check string) "kernel" "rw-k" (show Page_table.kernel_rw)

let test_copy_cost () =
  let m = Cost_model.default in
  Alcotest.(check int) "zero bytes free" 0 (Cost_model.copy_cost m 0);
  Alcotest.(check bool)
    "monotone" true
    (Cost_model.copy_cost m 4096 < Cost_model.copy_cost m 8192);
  Alcotest.(check int)
    "no-overhead model zeroes transitions" 0
    Cost_model.no_overhead.Cost_model.hypercall

let suite =
  List.map QCheck_alcotest.to_alcotest qcheck_tests
  @ [
      Alcotest.test_case "cache dirty writeback" `Quick test_cache_dirty_writeback;
      Alcotest.test_case "mem_crypto hit uniform" `Quick test_mem_crypto_hit_uniform;
      Alcotest.test_case "iommu devices" `Quick test_iommu_devices;
      Alcotest.test_case "perms printer" `Quick test_perms_printer;
      Alcotest.test_case "copy cost" `Quick test_copy_cost;
      Alcotest.test_case "cycles" `Quick test_cycles;
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
      Alcotest.test_case "rng set_seed" `Quick test_rng_set_seed;
      Alcotest.test_case "rng stream known answer" `Quick test_rng_known_answer;
      Alcotest.test_case "rng draws allocate nothing" `Quick test_rng_allocation;
      Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle;
      Alcotest.test_case "addr arithmetic" `Quick test_addr;
      Alcotest.test_case "phys_mem" `Quick test_phys_mem;
      Alcotest.test_case "frame_alloc" `Quick test_frame_alloc;
      Alcotest.test_case "frame_alloc contiguous" `Quick
        test_frame_alloc_contiguous_fragmented;
      Alcotest.test_case "page_table basics" `Quick test_page_table;
      Alcotest.test_case "page_table iter" `Quick test_page_table_iter;
      QCheck_alcotest.to_alcotest identity_range_equivalence;
      Alcotest.test_case "tlb" `Quick test_tlb;
      Alcotest.test_case "mmu translate" `Quick test_mmu_translate;
      Alcotest.test_case "mmu cached PTE semantics" `Quick test_mmu_cached_pte;
      Alcotest.test_case "mmu faults" `Quick test_mmu_faults;
      Alcotest.test_case "mmu nested (R-1)" `Quick test_mmu_nested;
      Alcotest.test_case "mmu switch flushes TLB" `Quick test_mmu_switch_flushes;
      Alcotest.test_case "cache basics" `Quick test_cache;
      Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
      Alcotest.test_case "cache slab built on first access" `Quick
        test_cache_slab_on_first_access;
      Alcotest.test_case "mem_crypto costs" `Quick test_mem_crypto_costs;
      Alcotest.test_case "iommu (R-3 primitive)" `Quick test_iommu;
      Alcotest.test_case "fast_table probes allocate nothing" `Quick
        test_fast_table_allocation;
    ]
