open Hyperenclave_hw

exception Segfault of { pid : int; va : int }

type swap_result = Swapped | Pinned_refused

type t = {
  clock : Cycles.t;
  cost : Cost_model.t;
  rng : Rng.t;
  mem : Phys_mem.t;
  cpu : Mmu.t;
  iommu : Iommu.t;
  frames : Frame_alloc.t;
  mutable npt : Page_table.t option;
  disk : (string, bytes) Hashtbl.t;
  swap : (int * int, bytes) Hashtbl.t;
  mutable next_pid : int;
  mutable current : Process.t option;
  mutable run_queue : Process.t list; (* head runs next *)
  mutable pf_trace : (int * int) list;
}

let create ~clock ~cost ~rng ~mem ~cpu ~iommu ~os_base_frame ~os_nframes =
  {
    clock;
    cost;
    rng;
    mem;
    cpu;
    iommu;
    frames = Frame_alloc.create ~base_frame:os_base_frame ~nframes:os_nframes;
    npt = None;
    disk = Hashtbl.create 16;
    swap = Hashtbl.create 256;
    next_pid = 1;
    current = None;
    run_queue = [];
    pf_trace = [];
  }

let clock t = t.clock
let cost t = t.cost
let mem t = t.mem
let cpu t = t.cpu
let iommu t = t.iommu

let demote t ~npt = t.npt <- Some npt
let demoted t = t.npt <> None

let install_current t =
  match t.current with
  | Some (proc : Process.t) -> (
      match t.npt with
      | Some npt -> Mmu.switch_context t.cpu ~gpt:proc.Process.gpt ~npt ()
      | None -> Mmu.switch_context t.cpu ~gpt:proc.Process.gpt ())
  | None -> ()

let with_translation t ~nested f =
  let saved = t.npt in
  if nested && saved = None then
    invalid_arg "Kernel.with_translation: not demoted yet";
  t.npt <- (if nested then saved else None);
  install_current t;
  let restore () =
    t.npt <- saved;
    install_current t
  in
  match f () with
  | v ->
      restore ();
      v
  | exception exn ->
      restore ();
      raise exn

let spawn t =
  Cycles.tick t.clock t.cost.os_fork;
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  Process.make ~pid

let exit_process t (proc : Process.t) =
  Page_table.iter proc.gpt (fun ~vpn:_ entry ->
      if Frame_alloc.owns t.frames entry.Page_table.frame then
        Frame_alloc.free t.frames entry.Page_table.frame);
  proc.alive <- false;
  if t.current = Some proc then t.current <- None

let install t (proc : Process.t) =
  match t.npt with
  | Some npt -> Mmu.switch_context t.cpu ~gpt:proc.gpt ~npt ()
  | None -> Mmu.switch_context t.cpu ~gpt:proc.gpt ()

let switch_to t proc =
  Cycles.tick t.clock t.cost.os_ctxsw;
  install t proc;
  t.current <- Some proc

let current t = t.current

let enqueue t proc =
  if not (List.memq proc t.run_queue) then t.run_queue <- t.run_queue @ [ proc ]

let dequeue t proc = t.run_queue <- List.filter (fun p -> p != proc) t.run_queue

let schedule t =
  match t.run_queue with
  | [] -> None
  | next :: rest ->
      t.run_queue <- rest @ [ next ];
      switch_to t next;
      Some next

let alloc_frame t =
  try Frame_alloc.alloc t.frames
  with Frame_alloc.Out_of_frames -> failwith "Kernel: out of physical memory"

let map_fresh t (proc : Process.t) ~vpn =
  let frame = alloc_frame t in
  Phys_mem.zero_page t.mem ~frame;
  Page_table.map proc.gpt ~vpn ~frame ~perms:Page_table.rw;
  frame

let mmap t (proc : Process.t) ~len ~populate =
  Cycles.tick t.clock t.cost.os_mmap;
  let len = Addr.align_up len in
  let base = proc.mmap_cursor in
  proc.mmap_cursor <- base + len + Addr.page_size;
  if populate then
    for vpn = Addr.page_of base to Addr.page_of (base + len - 1) do
      ignore (map_fresh t proc ~vpn)
    done;
  base

let brk_grow t (proc : Process.t) ~len =
  let old = proc.brk in
  proc.brk <- proc.brk + Addr.align_up len;
  ignore t;
  old

let in_heap (proc : Process.t) va = va >= Process.heap_base && va < proc.brk

let in_mmap_area (proc : Process.t) va =
  va >= Process.mmap_base && va < proc.mmap_cursor

(* Kernel page-fault handling: swap-in if evicted, demand-zero if the
   range is legitimately owned, segfault otherwise. *)
let handle_fault t (proc : Process.t) ~vpn ~va =
  Cycles.tick t.clock t.cost.os_page_fault;
  t.pf_trace <- (proc.pid, vpn) :: t.pf_trace;
  match Hashtbl.find_opt t.swap (proc.pid, vpn) with
  | Some contents ->
      let frame = alloc_frame t in
      Phys_mem.write_page t.mem ~frame contents;
      Page_table.map proc.gpt ~vpn ~frame ~perms:Page_table.rw;
      Hashtbl.remove t.swap (proc.pid, vpn);
      Cycles.tick t.clock t.cost.epc_swap_page
  | None ->
      if in_heap proc va || in_mmap_area proc va then
        ignore (map_fresh t proc ~vpn)
      else raise (Segfault { pid = proc.pid; va })

let require_current t (proc : Process.t) =
  match t.current with
  | Some p when p.Process.pid = proc.pid -> ()
  | Some _ | None -> invalid_arg "Kernel: process is not on the CPU"

let rec access_loop t (proc : Process.t) ~access ~va ~attempts =
  if attempts > 4 then raise (Segfault { pid = proc.pid; va });
  try Mmu.translate t.cpu ~access ~user:true va
  with Mmu.Page_fault fault ->
    if fault.present then raise (Segfault { pid = proc.pid; va })
    else begin
      handle_fault t proc ~vpn:fault.vpn ~va;
      access_loop t proc ~access ~va ~attempts:(attempts + 1)
    end

let proc_read t proc ~va ~len =
  require_current t proc;
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = va + !pos in
    let chunk = min (len - !pos) (Addr.page_size - Addr.offset a) in
    let pa = access_loop t proc ~access:Mmu.Read ~va:a ~attempts:0 in
    Bytes.blit (Phys_mem.read_bytes t.mem pa chunk) 0 out !pos chunk;
    pos := !pos + chunk
  done;
  Cycles.tick t.clock (Cost_model.copy_cost t.cost len);
  out

let proc_write t proc ~va data =
  require_current t proc;
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    let a = va + !pos in
    let chunk = min (len - !pos) (Addr.page_size - Addr.offset a) in
    let pa = access_loop t proc ~access:Mmu.Write ~va:a ~attempts:0 in
    Phys_mem.write_bytes t.mem pa (Bytes.sub data !pos chunk);
    pos := !pos + chunk
  done;
  Cycles.tick t.clock (Cost_model.copy_cost t.cost len)

let resolve_frame _t (proc : Process.t) ~vpn =
  match Page_table.lookup proc.gpt ~vpn with
  | Some e -> e.frame
  | None -> raise Not_found

let map_alias _t (proc : Process.t) ~vpn ~frame =
  Page_table.map proc.gpt ~vpn ~frame ~perms:Page_table.rw

let swap_out t (proc : Process.t) ~vpn =
  if Process.is_pinned proc ~vpn then Pinned_refused
  else
    match Page_table.lookup proc.gpt ~vpn with
    | None -> Pinned_refused
    | Some entry ->
        let frame = entry.Page_table.frame in
        Hashtbl.replace t.swap (proc.pid, vpn) (Phys_mem.read_page t.mem ~frame);
        Page_table.unmap proc.gpt ~vpn;
        Tlb.invalidate (Mmu.tlb t.cpu) ~vpn;
        if Frame_alloc.owns t.frames frame then Frame_alloc.free t.frames frame;
        Cycles.tick t.clock t.cost.epc_swap_page;
        Swapped

let swapped_count t = Hashtbl.length t.swap
let null_syscall t = Cycles.tick t.clock t.cost.os_null_syscall
let deliver_signal t = Cycles.tick t.clock t.cost.os_signal_delivery
let af_unix_roundtrip t = Cycles.tick t.clock t.cost.os_af_unix
let disk_store t ~key value = Hashtbl.replace t.disk key value
let disk_load t ~key = Hashtbl.find_opt t.disk key
let disk_delete t ~key = Hashtbl.remove t.disk key
let pf_trace t = t.pf_trace
