open Hyperenclave_hw
open Hyperenclave_os
open Hyperenclave_tee

type result = {
  name : string;
  native_us : float;
  vm_us : float;
  overhead_pct : float;
}

let us_of_cycles cycles = float_of_int cycles /. 2200.0

let touch_pages kernel proc ~va ~pages =
  for i = 0 to pages - 1 do
    Kernel.proc_write kernel proc ~va:(va + (i * Addr.page_size))
      (Bytes.make 8 'x')
  done

let null_call (p : Platform.t) () = Kernel.null_syscall p.kernel

let fork (p : Platform.t) () =
  let child = Kernel.spawn p.kernel in
  Kernel.switch_to p.kernel child;
  (* COW touch-down of the child's working set. *)
  let va = Kernel.mmap p.kernel child ~len:(48 * Addr.page_size) ~populate:false in
  touch_pages p.kernel child ~va ~pages:48;
  Kernel.exit_process p.kernel child;
  Kernel.switch_to p.kernel p.proc

let ctxsw (p : Platform.t) =
  let a = Kernel.spawn p.kernel and b = Kernel.spawn p.kernel in
  let pages = 16 (* 64 KB working set *) in
  let va_a = Kernel.mmap p.kernel a ~len:(pages * Addr.page_size) ~populate:false in
  let va_b = Kernel.mmap p.kernel b ~len:(pages * Addr.page_size) ~populate:false in
  Kernel.switch_to p.kernel a;
  touch_pages p.kernel a ~va:va_a ~pages;
  Kernel.switch_to p.kernel b;
  touch_pages p.kernel b ~va:va_b ~pages;
  fun () ->
    Kernel.switch_to p.kernel a;
    touch_pages p.kernel a ~va:va_a ~pages;
    Kernel.switch_to p.kernel b;
    touch_pages p.kernel b ~va:va_b ~pages

let mmap_op (p : Platform.t) () =
  ignore (Kernel.mmap p.kernel p.proc ~len:(16 * Addr.page_size) ~populate:true)

let page_fault (p : Platform.t) () =
  let old_brk = Kernel.brk_grow p.kernel p.proc ~len:Addr.page_size in
  Kernel.proc_write p.kernel p.proc ~va:old_brk (Bytes.make 8 'y')

let af_unix (p : Platform.t) () = Kernel.af_unix_roundtrip p.kernel

let measure (p : Platform.t) ~iterations op =
  (* The previous op may have left another process on the CPU. *)
  Kernel.switch_to p.kernel p.proc;
  (* Warm up the TLB/caches for this translation mode. *)
  op ();
  let _, cycles =
    Cycles.time p.clock (fun () ->
        for _ = 1 to iterations do
          op ()
        done)
  in
  us_of_cycles (cycles / iterations)

let run (p : Platform.t) ?(iterations = 50) () =
  let ops =
    [
      ("null call", fun () -> null_call p);
      ("fork", fun () -> fork p);
      ("ctxsw 2p/64KB", fun () -> ctxsw p);
      ("mmap", fun () -> mmap_op p);
      ("page fault", fun () -> page_fault p);
      ("AF_UNIX", fun () -> af_unix p);
    ]
  in
  List.map
    (fun (name, make_op) ->
      let native_us =
        Kernel.with_translation p.kernel ~nested:false (fun () ->
            measure p ~iterations (make_op ()))
      in
      let vm_us =
        Kernel.with_translation p.kernel ~nested:true (fun () ->
            measure p ~iterations (make_op ()))
      in
      let overhead_pct = (vm_us -. native_us) /. native_us *. 100.0 in
      { name; native_us; vm_us; overhead_pct })
    ops
