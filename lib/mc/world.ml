open Hyperenclave_hw
open Hyperenclave_crypto
open Hyperenclave_monitor

type config = {
  seed : int64;
  epc_frames : int;
  data_pages : int;
  dyn_pages : int;
  nssa : int;
  modes : Sgx_types.operation_mode array;
  seed_bug : bool;
}

let default_config =
  {
    seed = 7L;
    epc_frames = 8;
    data_pages = 2;
    dyn_pages = 2;
    nssa = 1;
    modes = [| Sgx_types.GU; Sgx_types.HU |];
    seed_bug = false;
  }

type slot_state = {
  enclave : Enclave.t;
  mutable shadow : Measure.page list;  (* reverse EADD order *)
  mutable data_added : int;
  mutable tcs_added : bool;
}

type t = {
  cfg : config;
  monitor : Monitor.t;
  mem : Phys_mem.t;
  vendor : Signature.private_key;
  slots : slot_state option array;
  store : (string, bytes) Hashtbl.t;
  archive : (string, bytes list) Hashtbl.t;  (* every blob ever stored *)
  poisoned : (int * int, unit) Hashtbl.t;  (* (enclave id, vpn) *)
  mutable undo : (int, bytes) Hashtbl.t list;  (* frame -> prior contents *)
  mutable tracking : bool;
  (* The legit SIGSTRUCT for a slot depends on the EADD *order*, not
     just on how many pages went in (Add and Add_tcs interleave), so
     the memo key is the ordered vpn list; each vpn's content and perms
     are fixed by the slot layout.  einit-family transitions fire at
     every under-construction state the DFS visits, so memoizing the
     measurement + signature (both SHA-256-heavy) is the difference
     between crypto dominating exploration and not. *)
  sig_cache : (int * int list, Sgx_types.sigstruct) Hashtbl.t;
  forged_cache : Sgx_types.sigstruct option array;
}

(* --- geometry ----------------------------------------------------------- *)

(* OS low memory, then the reserved region: monitor-private frames
   followed by the EPC pool.  Slot i's 16-page ELRANGE starts at virtual
   page 0x100 + i*0x20: data pages first, then one TCS, then the SSA
   frames, with dynamically committed (EDMM) pages from offset 8 up.
   Each slot also gets a one-page marshalling buffer in OS memory, well
   outside every ELRANGE. *)
let os_frames = 32
let monitor_private = 4
let elrange_pages = 16
let base_vpn i = 0x100 + (i * 0x20)
let data_vpn i k = base_vpn i + k
let tcs_vpn cfg i = base_vpn i + cfg.data_pages
let ssa_vpn cfg i = tcs_vpn cfg i + 1
let dyn_vpn i k = base_vpn i + 8 + k
let ms_vpn i = 0x800 + i
let ms_frame i = 8 + i
let ms_va i = Addr.base_of_page (ms_vpn i)
let entry_va i = Addr.base_of_page (base_vpn i)
let return_va = 0xdead000
let ro = { Page_table.write = false; exec = false; user = true }

let secs_of w i =
  {
    Sgx_types.base_va = Addr.base_of_page (base_vpn i);
    size = elrange_pages * Addr.page_size;
    attributes =
      { Sgx_types.debug = false; mode = w.cfg.modes.(i); xfrm = 3 };
    ssa_frame_pages = 1;
  }

(* --- construction ------------------------------------------------------- *)

let create cfg =
  let nslots = Array.length cfg.modes in
  if nslots < 1 || nslots > 8 then
    invalid_arg "Mc.World.create: need 1..8 slots";
  if cfg.data_pages < 1 || cfg.data_pages + 1 + cfg.nssa > 8 then
    invalid_arg "Mc.World.create: static layout must fit pages 0..7";
  if cfg.dyn_pages < 0 || cfg.dyn_pages > 8 then
    invalid_arg "Mc.World.create: dyn_pages must be 0..8";
  if cfg.epc_frames < 2 then invalid_arg "Mc.World.create: epc_frames < 2";
  let clock = Cycles.create () in
  let cost = Cost_model.default in
  let rng = Rng.create ~seed:cfg.seed in
  let total_frames = os_frames + monitor_private + cfg.epc_frames in
  let mem = Phys_mem.create ~size_bytes:(total_frames * Addr.page_size) in
  let iommu = Iommu.create () in
  Iommu.attach iommu ~device:"mc-nic";
  Iommu.grant iommu ~device:"mc-nic" ~first_frame:0 ~nframes:total_frames;
  let boot_gpt = Page_table.create () in
  let cpu = Mmu.create ~clock ~cost ~rng:(Rng.split rng) ~gpt:boot_gpt () in
  let tpm = Hyperenclave_tpm.Tpm.manufacture ~clock ~cost ~rng:(Rng.split rng) in
  Hyperenclave_tpm.Tpm.startup tpm;
  let monitor =
    Monitor.create ~clock ~cost ~rng:(Rng.split rng) ~mem ~cpu ~iommu ~tpm
      {
        Monitor.reserved_base_frame = os_frames;
        reserved_nframes = monitor_private + cfg.epc_frames;
        monitor_private_frames = monitor_private;
      }
  in
  (match Monitor.launch monitor ~boot_log:[] ~sealed_root_key:None with
  | `First_boot _ | `Resumed -> ());
  let vendor, _ =
    Signature.generate (Rng.create ~seed:(Int64.add cfg.seed 101L))
  in
  let store = Hashtbl.create 16 in
  let archive = Hashtbl.create 16 in
  let poisoned = Hashtbl.create 8 in
  let parse_key k = Scanf.sscanf k "heswap:%d:%x" (fun id vpn -> (id, vpn)) in
  Monitor.set_swap_backend monitor
    ~store:(fun key blob ->
      Hashtbl.replace store key (Bytes.copy blob);
      let prior = Option.value ~default:[] (Hashtbl.find_opt archive key) in
      Hashtbl.replace archive key (Bytes.copy blob :: prior);
      (* A fresh blob supersedes whatever staleness we had injected. *)
      match parse_key key with
      | pair -> Hashtbl.remove poisoned pair
      | exception _ -> ())
    ~load:(fun key -> Option.map Bytes.copy (Hashtbl.find_opt store key))
    ~delete:(fun key -> Hashtbl.remove store key);
  let w =
    {
      cfg;
      monitor;
      mem;
      vendor;
      slots = Array.make nslots None;
      store;
      archive;
      poisoned;
      undo = [];
      tracking = true;
      sig_cache = Hashtbl.create 32;
      forged_cache = Array.make nslots None;
    }
  in
  Phys_mem.set_write_observer mem
    (Some
       (fun frame ->
         if w.tracking then
           match w.undo with
           | log :: _ when not (Hashtbl.mem log frame) ->
               Hashtbl.add log frame (Phys_mem.read_page mem ~frame)
           | _ -> ()));
  w

let monitor w = w.monitor
let config w = w.cfg
let nslots w = Array.length w.slots

let alphabet w =
  Alphabet.all ~nslots:(nslots w) ~with_sabotage:w.cfg.seed_bug

let parse_key k = Scanf.sscanf k "heswap:%d:%x" (fun id vpn -> (id, vpn))

let slot_of_id w id =
  let rec go i =
    if i >= Array.length w.slots then None
    else
      match w.slots.(i) with
      | Some st when st.enclave.Enclave.id = id -> Some i
      | _ -> go (i + 1)
  in
  go 0

(* --- guards ------------------------------------------------------------- *)

let slot w i = if i >= 0 && i < Array.length w.slots then w.slots.(i) else None

let req w i =
  match slot w i with
  | Some st -> st
  | None -> invalid_arg "Mc.World: transition on an empty slot"

let is_uninit st = st.enclave.Enclave.lifecycle = Enclave.Uninitialized
let is_init st = st.enclave.Enclave.lifecycle = Enclave.Initialized
let the_tcs st =
  match st.enclave.Enclave.tcs_list with tcs :: _ -> Some tcs | [] -> None

let idle w = Monitor.current w.monitor = None

let is_current w i =
  match (Monitor.current w.monitor, slot w i) with
  | Some e, Some st -> e.Enclave.id = st.enclave.Enclave.id
  | _ -> false

let mapped st vpn =
  Option.is_some (Page_table.lookup st.enclave.Enclave.gpt ~vpn)

(* First uncommitted dynamic page, else page 0 (plain write / swap-in). *)
let grow_target w i st =
  let rec go k =
    if k >= w.cfg.dyn_pages then 0
    else if not (mapped st (dyn_vpn i k)) then k
    else go (k + 1)
  in
  go 0

let last_committed_dyn w i st =
  let rec go k best =
    if k >= w.cfg.dyn_pages then best
    else go (k + 1) (if mapped st (dyn_vpn i k) then Some k else best)
  in
  go 0 None

let evictable w =
  let epc = Monitor.epc w.monitor in
  let base = Epc.base_frame epc and n = Epc.nframes epc in
  let rec go f =
    f < base + n
    &&
    match Epc.info epc f with
    | Some { Epc.page_type = Sgx_types.Pt_reg; owner = Epc.Enclave _; _ } ->
        true
    | _ -> go (f + 1)
  in
  go base

let sorted_store_keys w =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) w.store [])

(* A store entry whose archive holds a different, older blob: the
   attacker can roll that slot back.  The archive is newest-first; its
   head is the monitor's own latest write-back, never a rollback. *)
let replay_candidate w =
  List.find_map
    (fun k ->
      let cur = Hashtbl.find w.store k in
      match Hashtbl.find_opt w.archive k with
      | None | Some [] -> None
      | Some (_latest :: older) -> (
          match List.find_opt (fun b -> not (Bytes.equal b cur)) older with
          | Some stale -> Some (k, stale)
          | None -> None))
    (sorted_store_keys w)

let splice_candidate w =
  match sorted_store_keys w with
  | k1 :: k2 :: _ -> Some (k1, k2)
  | _ -> None

let enabled w tr =
  let uninit i = match slot w i with Some st -> is_uninit st | None -> false in
  let init i = match slot w i with Some st -> is_init st | None -> false in
  match tr with
  | Alphabet.Create i -> i < nslots w && slot w i = None
  | Alphabet.Add i -> (
      match slot w i with
      | Some st -> is_uninit st && st.data_added < w.cfg.data_pages
      | None -> false)
  | Alphabet.Add_tcs i -> (
      match slot w i with
      | Some st -> is_uninit st && not st.tcs_added
      | None -> false)
  | Alphabet.Init i -> (
      match slot w i with
      | Some st -> is_uninit st && st.tcs_added
      | None -> false)
  | Alphabet.Enter i -> (
      init i && idle w
      &&
      match the_tcs (req w i) with
      | Some tcs -> not tcs.Sgx_types.busy
      | None -> false)
  | Alphabet.Exit i -> is_current w i
  | Alphabet.Aex i -> (
      is_current w i
      &&
      match the_tcs (req w i) with
      | Some tcs -> tcs.Sgx_types.current_ssa < tcs.Sgx_types.nssa
      | None -> false)
  | Alphabet.Resume i -> (
      init i && idle w
      &&
      match the_tcs (req w i) with
      | Some tcs -> tcs.Sgx_types.current_ssa > 0
      | None -> false)
  | Alphabet.Touch i -> is_current w i
  | Alphabet.Grow i -> is_current w i && w.cfg.dyn_pages > 0
  | Alphabet.Shrink i -> (
      match slot w i with
      | Some st -> is_init st && last_committed_dyn w i st <> None
      | None -> false)
  | Alphabet.Restrict i | Alphabet.Relax i -> (
      match slot w i with
      | Some st -> is_init st && mapped st (data_vpn i 0)
      | None -> false)
  | Alphabet.Remove i -> (
      match slot w i with
      | Some st -> not st.enclave.Enclave.entered
      | None -> false)
  | Alphabet.Swap_out -> evictable w
  | Alphabet.Atk_double_add i -> (
      match slot w i with
      | Some st ->
          is_uninit st && st.data_added >= 1 && mapped st (data_vpn i 0)
      | None -> false)
  | Alphabet.Atk_add_outside i -> uninit i
  | Alphabet.Atk_bad_sig i -> uninit i
  | Alphabet.Atk_forged_measure i | Alphabet.Atk_ms_reserved i
  | Alphabet.Atk_ms_overlap i -> (
      match slot w i with
      | Some st -> is_uninit st && st.tcs_added
      | None -> false)
  | Alphabet.Atk_enter_uninit i -> (
      idle w
      &&
      match slot w i with
      | Some st -> is_uninit st && st.tcs_added
      | None -> false)
  | Alphabet.Atk_busy_enter i -> (
      init i && idle w
      &&
      match the_tcs (req w i) with
      | Some tcs -> tcs.Sgx_types.busy
      | None -> false)
  | Alphabet.Atk_wrong_exit i -> is_current w i
  | Alphabet.Atk_remove_running i -> is_current w i
  | Alphabet.Atk_swap_replay -> Option.is_some (replay_candidate w)
  | Alphabet.Atk_swap_splice -> Option.is_some (splice_candidate w)
  | Alphabet.Sabotage -> w.cfg.seed_bug && slot w 0 <> None

(* --- stepping ----------------------------------------------------------- *)

type outcome = Applied | Refused of string | Crashed of string

let legit_sigstruct w i st =
  let key = (i, List.rev_map (fun p -> p.Measure.vpn) st.shadow) in
  match Hashtbl.find_opt w.sig_cache key with
  | Some s -> s
  | None ->
      let mrenclave = Measure.expected (secs_of w i) (List.rev st.shadow) in
      let s =
        Sgx_types.make_sigstruct ~vendor:w.vendor ~enclave_hash:mrenclave
          ~isv_prod_id:1 ~isv_svn:1
      in
      Hashtbl.replace w.sig_cache key s;
      s

let forged_sigstruct w i =
  match w.forged_cache.(i) with
  | Some s -> s
  | None ->
      let s =
        Sgx_types.make_sigstruct ~vendor:w.vendor
          ~enclave_hash:(Bytes.make 32 '\xee') ~isv_prod_id:1 ~isv_svn:1
      in
      w.forged_cache.(i) <- Some s;
      s

let good_marshalling i = (ms_va i, Addr.page_size, [ (ms_vpn i, ms_frame i) ])

let poison w key =
  match parse_key key with
  | pair -> Hashtbl.replace w.poisoned pair ()
  | exception _ -> ()

let run w tr =
  let m = w.monitor in
  match tr with
  | Alphabet.Create i ->
      let enclave = Monitor.ecreate m (secs_of w i) in
      w.slots.(i) <-
        Some { enclave; shadow = []; data_added = 0; tcs_added = false }
  | Alphabet.Add i ->
      let st = req w i in
      let k = st.data_added in
      let vpn = data_vpn i k in
      let content = Bytes.of_string (Printf.sprintf "mc:s%d:d%d" i k) in
      Monitor.eadd m st.enclave ~vpn ~content ~perms:Page_table.rw
        ~page_type:Sgx_types.Pt_reg;
      st.shadow <-
        { Measure.vpn; perms = Page_table.rw; page_type = Sgx_types.Pt_reg;
          content }
        :: st.shadow;
      st.data_added <- k + 1
  | Alphabet.Add_tcs i ->
      let st = req w i in
      let ossa = ssa_vpn w.cfg i in
      for k = 0 to w.cfg.nssa - 1 do
        let vpn = ossa + k in
        Monitor.eadd m st.enclave ~vpn ~content:Bytes.empty
          ~perms:Page_table.rw ~page_type:Sgx_types.Pt_ssa;
        st.shadow <-
          { Measure.vpn; perms = Page_table.rw;
            page_type = Sgx_types.Pt_ssa; content = Bytes.empty }
          :: st.shadow
      done;
      let tvpn = tcs_vpn w.cfg i in
      Monitor.eadd_tcs m st.enclave ~vpn:tvpn ~entry_va:(entry_va i)
        ~nssa:w.cfg.nssa ~ssa_base_vpn:ossa;
      st.shadow <-
        {
          Measure.vpn = tvpn;
          perms = Page_table.rw;
          page_type = Sgx_types.Pt_tcs;
          content =
            Bytes.of_string
              (Printf.sprintf "tcs:%x:%d:%x" (entry_va i) w.cfg.nssa ossa);
        }
        :: st.shadow;
      st.tcs_added <- true
  | Alphabet.Init i ->
      let st = req w i in
      Monitor.einit m st.enclave ~sigstruct:(legit_sigstruct w i st)
        ~marshalling:(good_marshalling i)
  | Alphabet.Enter i ->
      let st = req w i in
      let tcs = Option.get (the_tcs st) in
      Monitor.eenter m st.enclave ~tcs ~return_va
  | Alphabet.Exit i -> Monitor.eexit m (req w i).enclave ~target_va:return_va
  | Alphabet.Aex i -> Monitor.aex m (req w i).enclave
  | Alphabet.Resume i ->
      let st = req w i in
      Monitor.eresume m st.enclave ~tcs:(Option.get (the_tcs st))
  | Alphabet.Touch i ->
      ignore (Monitor.enclave_read m (req w i).enclave ~va:(entry_va i) ~len:8)
  | Alphabet.Grow i ->
      let st = req w i in
      let k = grow_target w i st in
      Monitor.enclave_write m st.enclave
        ~va:(Addr.base_of_page (dyn_vpn i k))
        (Bytes.of_string "mc:grow")
  | Alphabet.Shrink i ->
      let st = req w i in
      let k = Option.get (last_committed_dyn w i st) in
      Monitor.eremove_page m st.enclave ~vpn:(dyn_vpn i k)
  | Alphabet.Restrict i ->
      Monitor.emodpr m (req w i).enclave ~vpn:(data_vpn i 0) ~perms:ro
  | Alphabet.Relax i ->
      Monitor.emodpe m (req w i).enclave ~vpn:(data_vpn i 0)
        ~perms:Page_table.rw
  | Alphabet.Remove i ->
      Monitor.eremove m (req w i).enclave;
      w.slots.(i) <- None
  | Alphabet.Swap_out -> Monitor.swap_out_one m
  | Alphabet.Atk_double_add i ->
      Monitor.eadd m (req w i).enclave ~vpn:(data_vpn i 0)
        ~content:(Bytes.of_string "evil") ~perms:Page_table.rw
        ~page_type:Sgx_types.Pt_reg
  | Alphabet.Atk_add_outside i ->
      Monitor.eadd m (req w i).enclave
        ~vpn:(base_vpn i - 1)
        ~content:(Bytes.of_string "evil") ~perms:Page_table.rw
        ~page_type:Sgx_types.Pt_reg
  | Alphabet.Atk_bad_sig i ->
      let st = req w i in
      let good = legit_sigstruct w i st in
      let forged = { good with Sgx_types.signature = Bytes.make 32 'Z' } in
      Monitor.einit m st.enclave ~sigstruct:forged
        ~marshalling:(good_marshalling i)
  | Alphabet.Atk_forged_measure i ->
      let st = req w i in
      Monitor.einit m st.enclave ~sigstruct:(forged_sigstruct w i)
        ~marshalling:(good_marshalling i)
  | Alphabet.Atk_ms_reserved i ->
      let st = req w i in
      let epc_frame = Epc.base_frame (Monitor.epc m) in
      Monitor.einit m st.enclave ~sigstruct:(legit_sigstruct w i st)
        ~marshalling:(ms_va i, Addr.page_size, [ (ms_vpn i, epc_frame) ])
  | Alphabet.Atk_ms_overlap i ->
      let st = req w i in
      Monitor.einit m st.enclave ~sigstruct:(legit_sigstruct w i st)
        ~marshalling:(entry_va i, Addr.page_size, [ (base_vpn i, ms_frame i) ])
  | Alphabet.Atk_enter_uninit i ->
      let st = req w i in
      Monitor.eenter m st.enclave ~tcs:(Option.get (the_tcs st)) ~return_va
  | Alphabet.Atk_busy_enter i ->
      let st = req w i in
      Monitor.eenter m st.enclave ~tcs:(Option.get (the_tcs st)) ~return_va
  | Alphabet.Atk_wrong_exit i ->
      Monitor.eexit m (req w i).enclave ~target_va:(return_va + 0x10)
  | Alphabet.Atk_remove_running i -> Monitor.eremove m (req w i).enclave
  | Alphabet.Atk_swap_replay -> (
      match replay_candidate w with
      | Some (key, stale) ->
          Hashtbl.replace w.store key (Bytes.copy stale);
          poison w key
      | None -> invalid_arg "atk_swap_replay: no rollback candidate")
  | Alphabet.Atk_swap_splice -> (
      match splice_candidate w with
      | Some (k1, k2) ->
          Hashtbl.replace w.store k2 (Bytes.copy (Hashtbl.find w.store k1));
          poison w k2
      | None -> invalid_arg "atk_swap_splice: need two swapped pages")
  | Alphabet.Sabotage ->
      (* A buggy monitor maps one of its private frames into a guest
         table — exactly the class of bug the audit must catch. *)
      let st = req w 0 in
      Page_table.map st.enclave.Enclave.gpt
        ~vpn:(base_vpn 0 + elrange_pages - 1)
        ~frame:os_frames ~perms:Page_table.rw

let apply w tr =
  match run w tr with
  | () -> Applied
  | exception Monitor.Security_violation msg -> Refused msg
  | exception exn -> Crashed (Printexc.to_string exn)

(* --- oracle ------------------------------------------------------------- *)

let oracle w =
  let inv =
    Invariants.check w.monitor
    |> List.map (fun f -> Format.asprintf "%a" Invariants.pp_finding f)
  in
  (* Drop poison marks whose enclave is gone (EREMOVE purges blobs). *)
  let dead =
    Hashtbl.fold
      (fun (id, vpn) () acc ->
        if slot_of_id w id = None then (id, vpn) :: acc else acc)
      w.poisoned []
  in
  List.iter (Hashtbl.remove w.poisoned) dead;
  let stale =
    Hashtbl.fold
      (fun (id, vpn) () acc ->
        match slot_of_id w id with
        | None -> acc
        | Some i ->
            let st = req w i in
            if mapped st vpn then
              Printf.sprintf
                "stale swap blob accepted: enclave %d page 0x%x is resident"
                id vpn
              :: acc
            else acc)
      w.poisoned []
  in
  inv @ stale

(* --- backtracking ------------------------------------------------------- *)

type slot_ck = {
  sck : slot_state;
  sck_shadow : Measure.page list;
  sck_data : int;
  sck_tcs : bool;
}

type checkpoint = {
  ck_mon : Monitor.snapshot;
  ck_slots : slot_ck option array;
  ck_store : (string * bytes) list;
  ck_archive : (string * bytes list) list;
  ck_poisoned : (int * int) list;
}

let checkpoint w =
  {
    ck_mon = Monitor.snapshot w.monitor;
    ck_slots =
      Array.map
        (Option.map (fun st ->
             {
               sck = st;
               sck_shadow = st.shadow;
               sck_data = st.data_added;
               sck_tcs = st.tcs_added;
             }))
        w.slots;
    (* Blob values are never mutated in place (stores copy), so sharing
       them between checkpoint and table is safe. *)
    ck_store = Hashtbl.fold (fun k v acc -> (k, v) :: acc) w.store [];
    ck_archive = Hashtbl.fold (fun k v acc -> (k, v) :: acc) w.archive [];
    ck_poisoned = Hashtbl.fold (fun p () acc -> p :: acc) w.poisoned [];
  }

let rollback w ck =
  Monitor.restore w.monitor ck.ck_mon;
  Array.iteri
    (fun i sck ->
      match sck with
      | None -> w.slots.(i) <- None
      | Some { sck; sck_shadow; sck_data; sck_tcs } ->
          sck.shadow <- sck_shadow;
          sck.data_added <- sck_data;
          sck.tcs_added <- sck_tcs;
          w.slots.(i) <- Some sck)
    ck.ck_slots;
  Hashtbl.reset w.store;
  List.iter (fun (k, v) -> Hashtbl.replace w.store k v) ck.ck_store;
  Hashtbl.reset w.archive;
  List.iter (fun (k, v) -> Hashtbl.replace w.archive k v) ck.ck_archive;
  Hashtbl.reset w.poisoned;
  List.iter (fun p -> Hashtbl.replace w.poisoned p ()) ck.ck_poisoned

let push_frame_log w = w.undo <- Hashtbl.create 8 :: w.undo

let pop_restore_frames w =
  match w.undo with
  | [] -> invalid_arg "Mc.World.pop_restore_frames: no log pushed"
  | log :: rest ->
      w.undo <- rest;
      w.tracking <- false;
      Hashtbl.iter
        (fun frame page -> Phys_mem.write_page w.mem ~frame page)
        log;
      w.tracking <- true

(* --- canonical encoding ------------------------------------------------- *)

let lifecycle_char = function
  | Enclave.Uninitialized -> 'U'
  | Enclave.Initialized -> 'I'
  | Enclave.Dead -> 'D'

let ptype_char = function
  | Sgx_types.Pt_secs -> 'S'
  | Sgx_types.Pt_tcs -> 'T'
  | Sgx_types.Pt_reg -> 'R'
  | Sgx_types.Pt_ssa -> 'A'

let encode w =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let add_pt label pt =
    add "%s" label;
    Page_table.iter pt (fun ~vpn entry ->
        let p = entry.Page_table.perms in
        add "%x>%x%c%c%c," vpn entry.Page_table.frame
          (if p.Page_table.write then 'w' else '-')
          (if p.Page_table.exec then 'x' else '-')
          (if p.Page_table.user then 'u' else '-'));
    Buffer.add_char b ';'
  in
  (match Monitor.current w.monitor with
  | None -> add "c:-;"
  | Some e ->
      add "c:%d;" (Option.value ~default:(-1) (slot_of_id w e.Enclave.id)));
  Array.iteri
    (fun i sopt ->
      match sopt with
      | None -> add "s%d:-;" i
      | Some st ->
          let e = st.enclave in
          add "s%d:%c,d%d,t%b,m%b,e%b;" i
            (lifecycle_char e.Enclave.lifecycle)
            st.data_added st.tcs_added
            (e.Enclave.marshalling <> None)
            e.Enclave.entered;
          List.iter
            (fun (tcs : Sgx_types.tcs) ->
              add "T%x,%b,%d;" tcs.Sgx_types.tcs_vpn tcs.Sgx_types.busy
                tcs.Sgx_types.current_ssa)
            e.Enclave.tcs_list;
          add_pt "G" e.Enclave.gpt;
          (match e.Enclave.npt with
          | None -> add "N-;"
          | Some npt -> add_pt "N" npt))
    w.slots;
  let epc = Monitor.epc w.monitor in
  add "E:h%d,a%d;" (Epc.clock_hand epc) (Epc.alloc_hint epc);
  let base = Epc.base_frame epc in
  for f = base to base + Epc.nframes epc - 1 do
    (match Epc.info epc f with
    | None -> add "f-"
    | Some { Epc.owner; page_type; vpn } ->
        let o =
          match owner with
          | Epc.Monitor -> -1
          | Epc.Enclave id -> Option.value ~default:(-2) (slot_of_id w id)
        in
        add "f%d%c%x" o (ptype_char page_type) vpn);
    add "%c;" (if Epc.referenced epc f then '*' else '.')
  done;
  let swapped =
    Hashtbl.fold
      (fun k _ acc ->
        match parse_key k with
        | id, vpn -> (
            match slot_of_id w id with
            | Some i -> (i, vpn) :: acc
            | None -> acc)
        | exception _ -> acc)
      w.store []
    |> List.sort compare
  in
  List.iter (fun (i, vpn) -> add "w%d,%x;" i vpn) swapped;
  let poisons =
    Hashtbl.fold
      (fun (id, vpn) () acc ->
        match slot_of_id w id with
        | Some i -> (i, vpn) :: acc
        | None -> acc)
      w.poisoned []
    |> List.sort compare
  in
  List.iter (fun (i, vpn) -> add "p%d,%x;" i vpn) poisons;
  add "r%b" (Option.is_some (replay_candidate w));
  Buffer.contents b
