open Hyperenclave_hw
open Hyperenclave_crypto
open Hyperenclave_monitor
open Hyperenclave_os

type config = {
  mode : Sgx_types.operation_mode;
  debug : bool;
  elrange_pages : int;
  code_pages : int;
  data_pages : int;
  tcs_count : int;
  nssa : int;
  ms_bytes : int;
  code_seed : string;
  isv_prod_id : int;
  isv_svn : int;
}

let default_config mode =
  {
    mode;
    debug = false;
    elrange_pages = 4096; (* 16 MiB of enclave virtual range *)
    code_pages = 8;
    data_pages = 8;
    tcs_count = 2;
    nssa = 2;
    ms_bytes = 256 * 1024;
    code_seed = "hyperenclave-default-app";
    isv_prod_id = 1;
    isv_svn = 1;
  }

exception Enclave_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Enclave_error m)) fmt
let elbase = 0x1_0000_0000
let aep = 0x40_1000

type t = {
  kmod : Kmod.t;
  proc : Process.t;
  rng : Rng.t;
  enclave : Enclave.t;
  config : config;
  ms_base : int;
  ms_size : int;
  ms_out_region : int;  (** page-aligned start of the ECALL-output region *)
  ms_ocall_region : int;  (** page-aligned start of the ocalloc arena *)
  ecalls : (int, Tenv.handler) Hashtbl.t;
  ocalls : (int, bytes -> bytes) Hashtbl.t;
  heap_base_va : int;
  mutable heap_cursor : int;
  mutable ocalloc_cursor : int;
  mutable active_tcs : Sgx_types.tcs option;
  reserved_tcs : (int, unit) Hashtbl.t;
      (** TCSs parked on an in-flight OCALL, keyed by [tcs_vpn]: not busy
          monitor-side (the thread EEXITed) but owed an ORET re-entry, so
          no other entry may take them. *)
}

let monitor t = Kmod.monitor t.kmod
let kernel t = Kmod.kernel t.kmod
let clock t = Kernel.clock (kernel t)
let cost t = Kernel.cost (kernel t)

let count t name =
  Hyperenclave_obs.Telemetry.incr (Monitor.telemetry (monitor t)) name

module Fault = Hyperenclave_fault.Fault

let backoff t attempt =
  Cycles.tick (clock t) (World_switch.retry_backoff_cost (cost t) ~attempt)

(* Marshalling-buffer regions: [0, 1/2) ECALL inputs, [1/2, 3/4) ECALL
   outputs, [3/4, 1) OCALL allocations (sgx_ocalloc arena).  The splits
   are fixed at build time, rounded UP to page boundaries — computing
   them per call with truncating division let odd sizes overlap the
   output region with the ocalloc arena's boundary check. *)
let ms_out_off t = t.ms_out_region
let ms_ocall_off t = t.ms_ocall_region

(* Raw app-side access to the pinned marshalling buffer through the
   process mapping; cycle cost is charged explicitly by the Edge rates.
   [ms_slice_nofault] is the bare per-page walk over a caller-owned
   buffer — the slot rings recycle theirs across flushes, so the
   steady-state flush path moves payloads without allocating.  The
   [ms_raw_*] wrappers add the edge fault site the marshalling copies
   fire before the copy touches the buffer: a fault there is a transfer
   that never started, so re-running the edge call re-stages the same
   bytes. *)
let ms_slice_nofault rw t ~off buf ~pos ~len =
  let mem = Kernel.mem (kernel t) in
  let va = t.ms_base + off in
  let p = ref 0 in
  while !p < len do
    let a = va + !p in
    let chunk = min (len - !p) (Addr.page_size - Addr.offset a) in
    let frame =
      match Kernel.resolve_frame (kernel t) t.proc ~vpn:(Addr.page_of a) with
      | Some frame -> frame
      | None -> fail "marshalling page 0x%x not resident" (Addr.page_of a)
    in
    let pa = Addr.base_of_page frame lor Addr.offset a in
    (match rw with
    | `Write -> Phys_mem.write_sub mem pa buf ~pos:(pos + !p) ~len:chunk
    | `Read -> Phys_mem.read_into mem pa buf ~pos:(pos + !p) ~len:chunk);
    p := !p + chunk
  done

let ms_raw_write_slice t ~off buf ~pos ~len =
  Fault.point Edge.fault_site_in;
  ms_slice_nofault `Write t ~off buf ~pos ~len

let ms_raw_read_into t ~off buf ~pos ~len =
  Fault.point Edge.fault_site_out;
  ms_slice_nofault `Read t ~off buf ~pos ~len

let ms_raw_write t ~off data =
  ms_raw_write_slice t ~off data ~pos:0 ~len:(Bytes.length data)

let ms_raw_read t ~off ~len =
  let out = Bytes.create len in
  ms_raw_read_into t ~off out ~pos:0 ~len;
  out

(* --- loader ---------------------------------------------------------------- *)

let code_page_content config index =
  (* Deterministic "text section" derived from the code identity; the
     ecall table participates through the seed the caller chooses. *)
  let block = Sha256.digest_string (Printf.sprintf "%s:code:%d" config.code_seed index) in
  let page = Bytes.create Addr.page_size in
  for i = 0 to (Addr.page_size / 32) - 1 do
    Bytes.blit block 0 page (i * 32) 32
  done;
  page

let layout config =
  (* Page indices within ELRANGE. *)
  let code_first = 0 in
  let data_first = code_first + config.code_pages in
  let tcs_first = data_first + config.data_pages in
  let ssa_first = tcs_first + config.tcs_count in
  let heap_first = ssa_first + (config.tcs_count * config.nssa) in
  (code_first, data_first, tcs_first, ssa_first, heap_first)

let create ~kmod ~proc ~rng ~signer ~config ~ecalls ~ocalls =
  let code_first, data_first, tcs_first, ssa_first, heap_first = layout config in
  if heap_first >= config.elrange_pages then fail "create: ELRANGE too small";
  let secs =
    {
      Sgx_types.base_va = elbase;
      size = config.elrange_pages * Addr.page_size;
      attributes = { Sgx_types.debug = config.debug; mode = config.mode; xfrm = 3 };
      ssa_frame_pages = 1;
    }
  in
  let enclave = Kmod.ioctl_create_enclave kmod secs in
  let base_vpn = Addr.page_of elbase in
  let pages = ref [] in
  let add ~idx ~content ~perms ~page_type =
    let vpn = base_vpn + idx in
    Kmod.ioctl_add_page kmod enclave ~vpn ~content ~perms ~page_type;
    pages :=
      { Measure.vpn; perms; page_type; content = Measure.page_padded content }
      :: !pages
  in
  for i = 0 to config.code_pages - 1 do
    add ~idx:(code_first + i)
      ~content:(code_page_content config i)
      ~perms:Page_table.rx ~page_type:Sgx_types.Pt_reg
  done;
  for i = 0 to config.data_pages - 1 do
    add ~idx:(data_first + i) ~content:Bytes.empty ~perms:Page_table.rw
      ~page_type:Sgx_types.Pt_reg
  done;
  for i = 0 to config.tcs_count - 1 do
    let vpn = base_vpn + tcs_first + i in
    let entry_va = elbase in
    let ssa_base_vpn = base_vpn + ssa_first + (i * config.nssa) in
    Kmod.ioctl_add_tcs kmod enclave ~vpn ~entry_va ~nssa:config.nssa
      ~ssa_base_vpn;
    pages :=
      {
        Measure.vpn;
        perms = Page_table.rw;
        page_type = Sgx_types.Pt_tcs;
        content =
          Measure.page_padded
            (Bytes.of_string
               (Printf.sprintf "tcs:%x:%d:%x" entry_va config.nssa ssa_base_vpn));
      }
      :: !pages;
    for s = 0 to config.nssa - 1 do
      add
        ~idx:(ssa_first + (i * config.nssa) + s)
        ~content:Bytes.empty ~perms:Page_table.rw ~page_type:Sgx_types.Pt_ssa
    done
  done;
  (* sgx_sign: predict the measurement offline and sign it. *)
  let expected = Measure.expected secs (List.rev !pages) in
  let sigstruct =
    Sgx_types.make_sigstruct ~vendor:signer ~enclave_hash:expected
      ~isv_prod_id:config.isv_prod_id ~isv_svn:config.isv_svn
  in
  (* Marshalling buffer: mmap + MAP_POPULATE, then the pin ioctl.  The
     size must be page-aligned and large enough to split into the three
     page-rounded regions (inputs / outputs / ocalloc arena). *)
  if config.ms_bytes <= 0 || not (Addr.is_aligned config.ms_bytes) then
    fail "create: ms_bytes (%d) must be a positive multiple of the page size"
      config.ms_bytes;
  if config.ms_bytes < 4 * Addr.page_size then
    fail "create: ms_bytes (%d) too small to split into regions (< 4 pages)"
      config.ms_bytes;
  let ms_size = config.ms_bytes in
  let ms_base = Kernel.mmap (Kmod.kernel kmod) proc ~len:ms_size ~populate:true in
  Kmod.ioctl_pin_range kmod proc ~va:ms_base ~len:ms_size;
  Kmod.ioctl_init_enclave kmod proc enclave ~sigstruct ~ms_base ~ms_size;
  let t =
    {
      kmod;
      proc;
      rng;
      enclave;
      config;
      ms_base;
      ms_size;
      ms_out_region = Addr.align_up (ms_size / 2);
      ms_ocall_region = Addr.align_up (ms_size * 3 / 4);
      ecalls = Hashtbl.create 16;
      ocalls = Hashtbl.create 16;
      heap_base_va = elbase + (heap_first * Addr.page_size);
      heap_cursor = elbase + (heap_first * Addr.page_size);
      ocalloc_cursor = 0;
      active_tcs = None;
      reserved_tcs = Hashtbl.create 4;
    }
  in
  List.iter (fun (id, h) -> Hashtbl.replace t.ecalls id h) ecalls;
  List.iter (fun (id, h) -> Hashtbl.replace t.ocalls id h) ocalls;
  t

(* --- trusted environment --------------------------------------------------- *)

(* SGX "TCS busy" semantics: an entry may only take a TCS that is
   neither entered (busy monitor-side) nor parked on an in-flight OCALL
   awaiting its ORET.  When the pool is exhausted the entry is refused
   with a typed error — silently reusing a busy TCS would clobber its
   SSA state.  The pool walk is deterministic (creation order). *)
let tcs_available t (tcs : Sgx_types.tcs) =
  (not tcs.Sgx_types.busy) && not (Hashtbl.mem t.reserved_tcs tcs.Sgx_types.tcs_vpn)

let free_tcs_count t =
  List.length (List.filter (tcs_available t) t.enclave.Enclave.tcs_list)

let take_tcs t =
  match List.find_opt (tcs_available t) t.enclave.Enclave.tcs_list with
  | Some tcs -> tcs
  | None ->
      fail "TCS busy: no free TCS in enclave %d (%d total, all entered or parked on an OCALL)"
        t.enclave.Enclave.id (List.length t.enclave.Enclave.tcs_list)

let rec make_tenv t : Tenv.t =
  let m = monitor t in
  let enc = t.enclave in
  {
    Tenv.mode = t.config.mode;
    clock = clock t;
    cost = cost t;
    read = (fun ~va ~len -> Monitor.enclave_read m enc ~va ~len);
    write = (fun ~va data -> Monitor.enclave_write m enc ~va data);
    touch = (fun ~va ~write -> Monitor.touch m enc ~va ~write);
    malloc =
      (fun size ->
        let aligned = (size + 15) land lnot 15 in
        let va = t.heap_cursor in
        if va + aligned > elbase + enc.Enclave.secs.Sgx_types.size then
          fail "enclave heap exhausted";
        t.heap_cursor <- t.heap_cursor + aligned;
        va);
    heap_base = t.heap_base_va;
    ocall = (fun ~id ?data direction -> do_ocall t ~id ?data direction);
    ocall_switchless = (fun ~id ?data () -> do_ocall_switchless t ~id ?data ());
    compute = (fun cycles -> Cycles.tick (clock t) cycles);
    getkey = (fun name -> Monitor.egetkey m enc name);
    report = (fun ~report_data -> Monitor.ereport m enc ~report_data);
    verify_report = (fun report -> Monitor.verify_report m report);
    seal =
      (fun ?aad data ->
        let key = Monitor.egetkey m enc Sgx_types.Seal_key_mrenclave in
        let nonce = Rng.bytes t.rng 12 in
        Authenc.encode (Authenc.seal ~key ?aad ~nonce data));
    unseal =
      (fun blob ->
        let key = Monitor.egetkey m enc Sgx_types.Seal_key_mrenclave in
        Authenc.unseal ~key (Authenc.decode blob));
    seal_versioned =
      (fun data ->
        (* Bind the blob to a fresh counter value: all older blobs die. *)
        let version = Monitor.counter_increment_for m enc in
        let key = Monitor.egetkey m enc Sgx_types.Seal_key_mrenclave in
        let aad = Bytes.of_string (Printf.sprintf "version:%d" version) in
        Authenc.encode
          (Authenc.seal ~key ~aad ~nonce:(Rng.bytes t.rng 12) data));
    unseal_versioned =
      (fun blob ->
        let key = Monitor.egetkey m enc Sgx_types.Seal_key_mrenclave in
        let sealed = Authenc.decode blob in
        let current = Monitor.counter_read_for m enc in
        let expected = Bytes.of_string (Printf.sprintf "version:%d" current) in
        if not (Bytes.equal sealed.Authenc.aad expected) then
          failwith "stale sealed data";
        Authenc.unseal ~key sealed);
    set_page_perms =
      (fun ~vpn ~perms ~grant ->
        match t.config.mode with
        | Sgx_types.P -> Monitor.penclave_set_perms m enc ~vpn ~perms
        | Sgx_types.GU | Sgx_types.HU ->
            if grant then Monitor.emodpe m enc ~vpn ~perms
            else Monitor.emodpr m enc ~vpn ~perms);
    register_exception_handler =
      (fun ~vector handler -> Monitor.register_handler m enc ~vector handler);
    raise_exception = (fun vector -> simulate_exception t vector);
    interrupt_now = (fun () -> simulate_interrupt t);
    arm_interrupt_guard =
      (fun ~window_cycles ~threshold ->
        Monitor.arm_interrupt_guard m enc ~window_cycles ~threshold);
    interrupt_alarms = (fun () -> Monitor.interrupt_alarms enc);
    ms_read =
      (fun ~off ~len -> Monitor.enclave_read m enc ~va:(t.ms_base + off) ~len);
    ms_write =
      (fun ~off data -> Monitor.enclave_write m enc ~va:(t.ms_base + off) data);
    ms_base = t.ms_base;
    ms_size = t.ms_size;
    enclave_id = enc.Enclave.id;
  }

(* --- OCALL: exit, run untrusted handler, re-enter ------------------------- *)

and do_ocall t ~id ?(data = Bytes.empty) direction =
  let m = monitor t in
  let c = cost t in
  count t "sdk.ocall";
  Cycles.tick (clock t) (World_switch.sdk_ocall_soft c t.config.mode);
  let handler =
    match Hashtbl.find_opt t.ocalls id with
    | Some h -> h
    | None -> fail "unknown OCALL %d" id
  in
  (* sgx_ocalloc redirected into the marshalling buffer: the enclave
     writes the arguments straight there — no extra copy (Sec. 5.3). *)
  let arg_off = ms_ocall_off t + t.ocalloc_cursor in
  let len = Bytes.length data in
  if len > 0 then begin
    if arg_off + len > t.ms_size then fail "ocalloc arena exhausted";
    Monitor.enclave_write m t.enclave ~va:(t.ms_base + arg_off) data
  end;
  t.ocalloc_cursor <- t.ocalloc_cursor + ((len + 15) land lnot 15);
  (* The OCALL parks its TCS: sgx_ocall keeps the thread bound to the
     TCS across the exit, and ORET must re-enter on that same one.
     Reserving it for the duration of the untrusted handler is what
     gives a re-entrant ECALL issued from the handler the SGX "TCS
     busy" semantics (it must take a different TCS or fail typed)
     instead of silently clobbering the parked SSA state. *)
  let parked_tcs =
    match t.active_tcs with
    | Some tcs -> tcs
    | None -> fail "OCALL outside an ECALL"
  in
  Monitor.eexit m t.enclave ~target_va:aep;
  t.active_tcs <- None;
  Hashtbl.replace t.reserved_tcs parked_tcs.Sgx_types.tcs_vpn ();
  let unpark () = Hashtbl.remove t.reserved_tcs parked_tcs.Sgx_types.tcs_vpn in
  t.enclave.Enclave.stats.Enclave.ocalls <-
    t.enclave.Enclave.stats.Enclave.ocalls + 1;
  let args = if len > 0 then ms_raw_read t ~off:arg_off ~len else Bytes.empty in
  let reply = try handler args with exn -> unpark (); raise exn in
  let reply_off = arg_off in
  (* The reply reuses the request's ocalloc slot but may be larger than
     the request was: bound it against the arena too, or an untrusted
     handler's oversized reply runs off the end of the pinned buffer. *)
  if reply_off + Bytes.length reply > t.ms_size then begin
    unpark ();
    fail "OCALL %d reply (%d bytes) overflows the ocalloc arena" id
      (Bytes.length reply)
  end;
  if Bytes.length reply > 0 then ms_raw_write t ~off:reply_off reply;
  (* ORET: re-enter at the OCALL return stub on the parked TCS. *)
  unpark ();
  Monitor.eenter m t.enclave ~tcs:parked_tcs ~return_va:aep;
  t.enclave.Enclave.stats.Enclave.ecalls <-
    t.enclave.Enclave.stats.Enclave.ecalls - 1;
  t.active_tcs <- Some parked_tcs;
  let out =
    if Bytes.length reply > 0 then
      Monitor.enclave_read m t.enclave ~va:(t.ms_base + reply_off)
        ~len:(Bytes.length reply)
    else Bytes.empty
  in
  t.ocalloc_cursor <- max 0 (t.ocalloc_cursor - ((len + 15) land lnot 15));
  ignore direction;
  out

(* Switchless OCALL: the request and reply travel through the ocalloc
   arena like a regular OCALL's arguments, but no world switch happens —
   the enclave posts to the ring and an untrusted worker thread picks the
   request up.  We charge the enclave the post + expected wait and run the
   handler inline on the worker's behalf. *)
and do_ocall_switchless t ~id ?(data = Bytes.empty) () =
  let m = monitor t in
  let c = cost t in
  count t "sdk.ocall_switchless";
  let handler =
    match Hashtbl.find_opt t.ocalls id with
    | Some h -> h
    | None -> fail "unknown OCALL %d" id
  in
  let arg_off = ms_ocall_off t + t.ocalloc_cursor in
  let len = Bytes.length data in
  if len > 0 then begin
    if arg_off + len > t.ms_size then fail "ocalloc arena exhausted";
    Monitor.enclave_write m t.enclave ~va:(t.ms_base + arg_off) data
  end;
  Cycles.tick (clock t) (c.Cost_model.switchless_post + c.Cost_model.switchless_wait);
  (* Worker side: dispatch + handler, reply into the same slot. *)
  Cycles.tick (clock t) c.Cost_model.switchless_dispatch;
  let args = if len > 0 then ms_raw_read t ~off:arg_off ~len else Bytes.empty in
  let reply = handler args in
  if arg_off + Bytes.length reply > t.ms_size then
    fail "OCALL %d reply (%d bytes) overflows the ocalloc arena" id
      (Bytes.length reply);
  if Bytes.length reply > 0 then ms_raw_write t ~off:arg_off reply;
  t.enclave.Enclave.stats.Enclave.ocalls <-
    t.enclave.Enclave.stats.Enclave.ocalls + 1;
  if Bytes.length reply > 0 then
    Monitor.enclave_read m t.enclave ~va:(t.ms_base + arg_off)
      ~len:(Bytes.length reply)
  else Bytes.empty

(* --- exception simulation --------------------------------------------------- *)

and simulate_exception t vector =
  let m = monitor t in
  match Monitor.deliver_exception m t.enclave vector with
  | `Handled_in_enclave -> ()
  | `Forwarded_to_os -> (
      let interrupted_tcs =
        match t.active_tcs with
        | Some tcs -> tcs
        | None -> fail "exception outside an ECALL"
      in
      (* Phase 1: the primary OS turns the fault into a signal to the
         uRTS... *)
      Kernel.deliver_signal (kernel t);
      (* Phase 2: ...which ECALLs the in-enclave internal handler on a
         fresh TCS. *)
      let vector_name = Sgx_types.vector_name vector in
      match Enclave.find_handler t.enclave ~vector:vector_name with
      | None -> fail "unhandled %s inside enclave %d" vector_name t.enclave.Enclave.id
      | Some handler ->
          Cycles.tick (clock t) (World_switch.sdk_ecall_soft (cost t) t.config.mode);
          let tcs = take_tcs t in
          Monitor.eenter m t.enclave ~tcs ~return_va:aep;
          let handled = handler vector in
          Monitor.eexit m t.enclave ~target_va:aep;
          if not handled then fail "in-enclave handler refused %s" vector_name;
          (* ERESUME back into the interrupted computation.  A transient
             fault leaves the SSA frame intact, so the uRTS re-issues the
             ERESUME after backoff, like the AEP retry loop in the real
             runtime. *)
          Fault.with_retries ~backoff:(backoff t) (fun () ->
              Monitor.eresume m t.enclave ~tcs:interrupted_tcs))

and simulate_interrupt t =
  let m = monitor t in
  match t.active_tcs with
  | None -> fail "interrupt outside an ECALL"
  | Some tcs ->
      Monitor.deliver_interrupt m t.enclave;
      (* The primary OS services the interrupt and schedules us back. *)
      Cycles.tick (clock t) (1_800 + (cost t).Cost_model.os_ctxsw);
      Fault.with_retries ~backoff:(backoff t) (fun () ->
          Monitor.eresume m t.enclave ~tcs)

(* --- ECALL ------------------------------------------------------------------ *)

(* A direct (non-marshalling) copy still translates the foreign pages it
   reads through the nested tables; charge the same per-page costs the
   marshalling path pays inside enclave_read/_write (first page cold in
   the paging-structure caches, the rest warm) so the Fig. 7 baseline is
   apples-to-apples. *)
let foreign_touch_cost (c : Cost_model.t) ~bytes =
  let pages = (bytes + Addr.page_size - 1) / Addr.page_size in
  if pages = 0 then 0
  else (12 * c.pt_level_access) + ((pages - 1) * ((4 * c.pt_level_access) + 2))

let lookup_ecall t id =
  match Hashtbl.find_opt t.ecalls id with
  | Some h -> h
  | None -> fail "unknown ECALL %d" id

let run_ecall t ~id ~data ~direction ~use_ms =
  let m = monitor t in
  let c = cost t in
  let handler = lookup_ecall t id in
  count t "sdk.ecall";
  Cycles.tick (clock t) (World_switch.sdk_ecall_soft c t.config.mode);
  let len = Bytes.length data in
  let carries_in =
    match direction with
    | Edge.In | Edge.In_out -> len > 0
    | Edge.Out | Edge.User_check -> false
  in
  (* App-side leg: stage the input in the marshalling buffer.  Inputs own
     only the [0, 1/2) region; anything larger would spill into the
     output region. *)
  if use_ms && carries_in then begin
    if len > ms_out_off t then
      fail "ECALL %d input (%d bytes) exceeds the marshalling input region" id
        len;
    ms_raw_write t ~off:0 data;
    match direction with
    | Edge.In -> Edge.charge_ms_in c (clock t) ~bytes:len
    | Edge.In_out -> Edge.charge_ms_in_out c (clock t) ~bytes:len
    | Edge.Out | Edge.User_check -> ()
  end;
  let tcs = take_tcs t in
  Monitor.eenter m t.enclave ~tcs ~return_va:aep;
  t.active_tcs <- Some tcs;
  let tenv = make_tenv t in
  (* Trusted-side leg: copy the staged input into enclave memory (the
     copy SGX-style direct access performs as well). *)
  let input =
    if carries_in then
      if use_ms then Monitor.enclave_read m t.enclave ~va:t.ms_base ~len
      else begin
        Cycles.tick (clock t)
          (Cost_model.copy_cost c len + foreign_touch_cost c ~bytes:len);
        data
      end
    else data
  in
  (* An exception escaping trusted code aborts the enclave call: exit
     cleanly (freeing the TCS and restoring the normal context) before
     propagating, as the real uRTS does for enclave crashes. *)
  let result =
    try
      (* Injected AEX storm: a burst of device interrupts lands right
         after EENTER; each one AEXes to the primary OS and is ERESUMEd
         before trusted code makes progress.  Nested injections at the
         switch sites unwind through the cleanup below. *)
      (match Fault.check "sdk.aex_storm" with
      | None -> ()
      | Some kind ->
          let bursts =
            match kind with Fault.Transient -> 2 | Fault.Permanent -> 6
          in
          for _ = 1 to bursts do
            simulate_interrupt t
          done;
          Fault.survived "sdk.aex_storm");
      handler tenv input
    with exn ->
      (match Monitor.current m with
      | Some running when running.Enclave.id = t.enclave.Enclave.id ->
          Monitor.eexit m t.enclave ~target_va:aep
      | Some _ | None -> ());
      t.active_tcs <- None;
      raise exn
  in
  let out_len = Bytes.length result in
  let carries_out =
    match direction with
    | Edge.Out | Edge.In_out -> out_len > 0
    | Edge.In | Edge.User_check -> false
  in
  (* The result owns only the [1/2, 3/4) output region; an oversized one
     would silently overwrite the ocalloc arena (still inside the
     marshalling buffer, so R-2 never trips).  The enclave is entered
     here, so exit cleanly before reporting the error. *)
  if carries_out && use_ms && out_len > ms_ocall_off t - ms_out_off t then begin
    Monitor.eexit m t.enclave ~target_va:aep;
    t.active_tcs <- None;
    fail "ECALL %d output (%d bytes) exceeds the marshalling output region" id
      out_len
  end;
  if carries_out then
    if use_ms then
      Monitor.enclave_write m t.enclave ~va:(t.ms_base + ms_out_off t) result
    else
      Cycles.tick (clock t)
        (Cost_model.copy_cost c out_len + foreign_touch_cost c ~bytes:out_len);
  Monitor.eexit m t.enclave ~target_va:aep;
  t.active_tcs <- None;
  if use_ms && carries_out then begin
    (match direction with
    | Edge.Out -> Edge.charge_ms_out c (clock t) ~bytes:out_len
    | Edge.In_out | Edge.In | Edge.User_check -> ());
    ms_raw_read t ~off:(ms_out_off t) ~len:out_len
  end
  else result

(* Bounded retry on transient injected faults.  Every fault site fires
   before its guarded operation mutates state and [run_ecall] exits the
   enclave cleanly on any escaping exception, so re-running the whole
   ECALL from the top is safe: inputs are re-staged, a fresh TCS is
   taken, and the EDMM/swap machinery re-faults pages on demand.
   Permanent faults and exhausted retries surface as the typed
   [Fault.Injected] error. *)
let ecall t ~id ?(data = Bytes.empty) ~direction () =
  Fault.with_retries ~backoff:(backoff t) (fun () ->
      run_ecall t ~id ~data ~direction ~use_ms:true)

let ecall_no_ms t ~id ?(data = Bytes.empty) ~direction () =
  Fault.with_retries ~backoff:(backoff t) (fun () ->
      run_ecall t ~id ~data ~direction ~use_ms:false)

(* --- slot ring: sharded, allocation-free switchless ECALL dispatch ---------- *)

(* A fixed-stride slot ring per (tenant, shard) in the pinned marshalling
   buffer: the SDK's one batched call path.  Every slot has a fixed
   stride, so the ring slot is the envelope: a caller stages ciphertext
   straight into it — and the staging images ([rbuf]/[pbuf]) are
   recycled across flushes: once they have grown to a ring's working
   depth, the path allocates nothing per request on the staging side.

   The dispatch is switchless: the plane publishes the staged image and a
   persistent in-enclave worker picks it up — no TCS take, no
   EENTER/EEXIT, no SDK soft path; the enclave pays one post fence plus
   the fixed-stride per-slot dispatch ([Cost_model.ring_slot_dispatch]).
   Having no entered TCS, ring handlers must not OCALL (they get the
   typed "OCALL outside an ECALL" refusal).

   Layout: the ECALL-input region [0, ms_out_region) splits into [shards]
   equal request segments and the output region [ms_out_region,
   ms_ocall_region) into [shards] reply segments; shard [i] owns segment
   [i] of each.  A segment holds [count:8][slot_0][slot_1]... with
   slot_i = [id:8][len:8][payload] at [8 + i*stride], replies echoing the
   same framing.  The payload area is [slot_bytes] wide, plus [tag_bytes]
   on a ring with a channel: there slots carry ciphertext, and the
   in-enclave worker opens each request and seals each reply itself. *)
type channel = {
  open_slot : slot:int -> bytes -> unit;
  seal_slot : slot:int -> bytes -> dst:bytes -> dst_off:int -> int;
}

let tag_bytes = 32

(* Staging images start this many slots wide and double on demand, so a
   ring sized for a deep queue costs memory only for the depth it
   reaches. *)
let initial_image_slots = 16

type ring = {
  rt : t;
  req_off : int;  (* segment base in the input region *)
  rep_off : int;  (* segment base in the output region *)
  slots : int;
  slot_bytes : int;
  stride : int;  (* 16 + slot_bytes, + tag_bytes with a channel *)
  channel : channel option;
  mutable rbuf : bytes;  (* reusable staged-request image, header included *)
  mutable pbuf : bytes;  (* reusable reply image, same framing *)
  mutable slot_cyc : int array;
      (* per served slot: its fixed-stride dispatch plus the cycles of
         its open, handler, reply copy and seal; one entry per image slot,
         grown with the images *)
  mutable staged : int;
  mutable served : int;
      (* slots whose reply is already framed in [pbuf]: a dispatch retried
         after a transient fault resumes here instead of re-running the
         handlers that completed *)
}

let ring_staged r = r.staged
let ring_capacity r = r.slots
let ring_slot_bytes r = r.slot_bytes
let ring_buf r = r.rbuf
let ring_reply_buf r = r.pbuf

let ring_slot_cycles r ~slot =
  if slot < 0 || slot >= r.served then
    fail "ring slot %d outside the %d served" slot r.served;
  r.slot_cyc.(slot)

(* A second worker joining a ring posts its own fence, enters and leaves
   the worker context as [Monitor.with_worker] does, and pulls the ring
   cursor's cache line; every later claim on the shared cursor pulls the
   line again. *)
let ring_join_cycles r =
  let c = cost r.rt in
  c.Cost_model.switchless_post + (2 * c.Cost_model.tlb_flush)
  + c.Cost_model.cache_miss_dram

let ring_claim_cycles r = (cost r.rt).Cost_model.cache_miss_dram

let ring_reset r =
  r.staged <- 0;
  r.served <- 0

let create_ring ?channel t ~shard ~shards ~slots ~slot_bytes =
  if shards <= 0 then fail "create_ring: shards (%d) must be positive" shards;
  if shard < 0 || shard >= shards then
    fail "create_ring: shard %d outside [0, %d)" shard shards;
  if slots <= 0 then fail "create_ring: slots (%d) must be positive" slots;
  if slot_bytes <= 0 || slot_bytes land 7 <> 0 then
    fail "create_ring: slot_bytes (%d) must be a positive multiple of 8"
      slot_bytes;
  let stride =
    16 + slot_bytes + match channel with Some _ -> tag_bytes | None -> 0
  in
  let need = 8 + (slots * stride) in
  let in_seg = (t.ms_out_region / shards) land lnot 7 in
  let out_seg = ((t.ms_ocall_region - t.ms_out_region) / shards) land lnot 7 in
  if need > in_seg || need > out_seg then
    fail
      "create_ring: %d slots x %d B need %d B per segment, but %d shards \
       leave %d B (in) / %d B (out) — raise ms_bytes"
      slots (stride - 16) need shards in_seg out_seg;
  let image = 8 + (min slots initial_image_slots * stride) in
  {
    rt = t;
    req_off = shard * in_seg;
    rep_off = t.ms_out_region + (shard * out_seg);
    slots;
    slot_bytes;
    stride;
    channel;
    rbuf = Bytes.create image;
    pbuf = Bytes.create image;
    slot_cyc = Array.make (min slots initial_image_slots) 0;
    staged = 0;
    served = 0;
  }

(* Double both images (up to the ring's capacity), keeping every staged
   slot and every framed reply. *)
let grow_images r =
  let keep = 8 + (r.staged * r.stride) in
  let cap = (Bytes.length r.rbuf - 8) / r.stride in
  let size = 8 + (min r.slots (2 * cap) * r.stride) in
  let grow b =
    let b' = Bytes.create size in
    Bytes.blit b 0 b' 0 keep;
    b'
  in
  r.rbuf <- grow r.rbuf;
  r.pbuf <- grow r.pbuf;
  let cyc = Array.make ((size - 8) / r.stride) 0 in
  Array.blit r.slot_cyc 0 cyc 0 r.staged;
  r.slot_cyc <- cyc

(* Staging writes the slot header and hands the caller the payload offset
   into [ring_buf]: the caller produces the payload directly in the
   slot. *)
let ring_stage r ~ecall_id ~len =
  if len < 0 || len > r.slot_bytes then
    fail "ring_stage: %d bytes exceed the %d-byte slot" len r.slot_bytes;
  if r.staged >= r.slots then fail "ring_stage: ring full (%d slots)" r.slots;
  let off = 8 + (r.staged * r.stride) in
  if off + r.stride > Bytes.length r.rbuf then grow_images r;
  Bytes.set_int64_le r.rbuf off (Int64.of_int ecall_id);
  Bytes.set_int64_le r.rbuf (off + 8) (Int64.of_int len);
  r.staged <- r.staged + 1;
  off + 16

let ring_reply_slot r ~slot =
  if slot < 0 || slot >= r.staged then
    fail "ring reply slot %d outside the %d staged" slot r.staged;
  let off = 8 + (slot * r.stride) in
  let len = Int64.to_int (Bytes.get_int64_le r.pbuf (off + 8)) in
  if len < 0 || len > r.stride - 16 then
    fail "ring reply slot %d has a corrupt length word (%d)" slot len;
  (off + 16, len)

(* Untrusted half, request direction: the plane publishes the staged
   image into the shard's pinned request segment and pays the
   marshalling-in rate.  Runs on the caller's (plane) clock. *)
let ring_publish r =
  let t = r.rt in
  if r.staged > 0 then begin
    let len = 8 + (r.staged * r.stride) in
    Bytes.set_int64_le r.rbuf 0 (Int64.of_int r.staged);
    ms_raw_write_slice t ~off:r.req_off r.rbuf ~pos:0 ~len;
    Edge.charge_ms_in (cost t) (clock t) ~bytes:len
  end

(* The worker walks the segment's pages through its own mapping of the
   pinned region — one translation per page, no byte copy (User_check
   discipline).  [Monitor.touch] needs an entered TCS, which a
   switchless dispatch never has; pinned marshalling pages cannot be
   swapped out, so residency through the kernel mapping is the whole
   check. *)
let touch_segment t ~off ~len =
  let c = cost t in
  let first = Addr.page_of (t.ms_base + off) in
  let last = Addr.page_of (t.ms_base + off + len - 1) in
  for vpn = first to last do
    Cycles.tick (clock t) c.Cost_model.tlb_hit;
    match Kernel.resolve_frame (kernel t) t.proc ~vpn with
    | Some _ -> ()
    | None -> fail "ring segment page 0x%x not resident" vpn
  done

(* Trusted half: the persistent in-enclave worker.  It reads the slots
   where they lie (User_check discipline: the segment's pages are
   translated through the enclave's mapping — charged — but the payload
   is not copied into enclave memory first) and frames replies at the
   same stride in the shard's reply segment, storing the image through
   its own mapping of the pinned region.  The only per-slot byte
   movement charged is each handler's reply landing in its slot.  On a
   ring with a channel the worker opens its private copy of each slot
   before the handler runs and seals the reply into the reply slot after
   it, so neither plaintext ever touches the shared segments.  The walk
   starts at the served-slot cursor, so a retry after a transient fault
   pays the post fence and dispatch again only for the slots still
   unserved, and re-runs the faulted slot's channel callbacks and
   handler from their top.  Each served slot records its own cycles
   (dispatch price included): the scheduler places slots, not whole
   rings, on cores; the rest of the ring's cycles (post fence, segment
   walks, worker context, reply store, a faulted attempt) stay with the
   ring. *)
let run_ring_dispatch r =
  let t = r.rt in
  let m = monitor t in
  let c = cost t in
  let k = r.staged in
  let first = r.served in
  if first < k then begin
    let len = 8 + (k * r.stride) in
    Cycles.tick (clock t)
      (c.Cost_model.switchless_post
      + ((k - first) * c.Cost_model.ring_slot_dispatch));
    touch_segment t ~off:r.req_off ~len;
    let tenv = make_tenv t in
    (* The handlers run on the persistent in-enclave worker: enclave
       translation is current (so they can reach the demand-paged heap —
       a LibOS-backed service pages its VFS through it) but no TCS is
       taken and no EENTER is paid. *)
    Monitor.with_worker m t.enclave (fun () ->
        for slot = first to k - 1 do
          let c0 = Cycles.now (clock t) in
          let off = 8 + (slot * r.stride) in
          let id = Int64.to_int (Bytes.get_int64_le r.rbuf off) in
          let blen = Int64.to_int (Bytes.get_int64_le r.rbuf (off + 8)) in
          if blen < 0 || blen > r.slot_bytes then
            fail "ring_dispatch: slot %d has a corrupt length word" slot;
          let handler = lookup_ecall t id in
          let body = Bytes.sub r.rbuf (off + 16) blen in
          (match r.channel with
          | Some ch -> ch.open_slot ~slot body
          | None -> ());
          let reply = handler tenv body in
          let rlen = Bytes.length reply in
          if rlen > r.slot_bytes then
            fail
              "ring_dispatch: ECALL %d reply (%d bytes) exceeds the %d-byte \
               slot"
              id rlen r.slot_bytes;
          Cycles.tick (clock t) (Cost_model.copy_cost c rlen);
          let framed =
            match r.channel with
            | Some ch -> ch.seal_slot ~slot reply ~dst:r.pbuf ~dst_off:(off + 16)
            | None ->
                Bytes.blit reply 0 r.pbuf (off + 16) rlen;
                rlen
          in
          if framed < 0 || framed > r.stride - 16 then
            fail "ring_dispatch: slot %d sealed to %d bytes, past its %d-byte \
                  payload area"
              slot framed (r.stride - 16);
          Bytes.set_int64_le r.pbuf off (Int64.of_int id);
          Bytes.set_int64_le r.pbuf (off + 8) (Int64.of_int framed);
          r.slot_cyc.(slot) <-
            c.Cost_model.ring_slot_dispatch + (Cycles.now (clock t) - c0);
          r.served <- slot + 1
        done);
    Bytes.set_int64_le r.pbuf 0 (Int64.of_int k);
    touch_segment t ~off:r.rep_off ~len;
    ms_slice_nofault `Write t ~off:r.rep_off r.pbuf ~pos:0 ~len
  end

let ring_dispatch r =
  let t = r.rt in
  let k = r.staged - r.served in
  if k > 0 then begin
    let telemetry = Monitor.telemetry (monitor t) in
    count t "sdk.ring_dispatch";
    Hyperenclave_obs.Telemetry.add telemetry "sdk.ring_slots" k;
    Hyperenclave_obs.Telemetry.observe telemetry "ring.shard_occupancy" k
  end;
  Fault.with_retries ~backoff:(backoff t) (fun () -> run_ring_dispatch r)

(* Untrusted half, reply direction: pull the shard's reply image back
   into [ring_reply_buf] and pay the marshalling-out rate.  Runs on the
   caller's (plane) clock; callers that must absorb injected
   marshalling faults wrap this in [Fault.with_retries]. *)
let ring_read_replies r =
  let t = r.rt in
  if r.staged > 0 then begin
    let len = 8 + (r.staged * r.stride) in
    Edge.charge_ms_out (cost t) (clock t) ~bytes:len;
    ms_raw_read_into t ~off:r.rep_off r.pbuf ~pos:0 ~len;
    let k = Int64.to_int (Bytes.get_int64_le r.pbuf 0) in
    if k <> r.staged then fail "ring replies: %d staged but %d served" r.staged k
  end

let destroy t = Kmod.ioctl_destroy_enclave t.kmod t.proc t.enclave

let enclave t = t.enclave
let mrenclave t = t.enclave.Enclave.mrenclave
let mode t = t.config.mode
let stats t = t.enclave.Enclave.stats
let config t = t.config

(* Quote generation crosses into the TPM; transient TPM faults are
   retried with backoff (the chip keeps no partial state across an
   aborted command). *)
let gen_quote t ~report_data ~nonce =
  Fault.with_retries ~backoff:(backoff t) (fun () ->
      Monitor.gen_quote (monitor t) t.enclave ~report_data ~nonce)
