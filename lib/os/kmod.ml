open Hyperenclave_hw
open Hyperenclave_monitor
module Fault = Hyperenclave_fault.Fault

type t = { kernel : Kernel.t; monitor : Monitor.t }

let sealed_key_name = "hyperenclave/k_root.sealed"
let monitor_pcr = 10

let load ~kernel ~tpm ~monitor ~monitor_image ~boot_log =
  (* Late launch step 1: measure the hypervisor image out of the
     initramfs and extend the TPM before jumping into it. *)
  let measurement =
    Hyperenclave_tpm.Tpm.extend_measurement tpm ~index:monitor_pcr
      monitor_image
  in
  let boot_log =
    boot_log
    @ [ { Monitor.pcr_index = monitor_pcr; label = "hypervisor"; measurement } ]
  in
  let sealed = Kernel.disk_load kernel ~key:sealed_key_name in
  (match Monitor.launch monitor ~boot_log ~sealed_root_key:sealed with
  | `First_boot blob -> Kernel.disk_store kernel ~key:sealed_key_name blob
  | `Resumed -> ());
  (* Step 2: the kernel returns from the launch demoted to the normal VM.
     It also provides the (untrusted) backing store for EPC overcommit. *)
  Monitor.set_swap_backend monitor
    ~store:(fun key blob -> Kernel.disk_store kernel ~key blob)
    ~load:(fun key -> Kernel.disk_load kernel ~key)
    ~delete:(fun key -> Kernel.disk_delete kernel ~key);
  Kernel.demote kernel ~npt:(Monitor.normal_npt monitor);
  { kernel; monitor }

let monitor t = t.monitor
let kernel t = t.kernel

let backoff t attempt =
  Cycles.tick (Kernel.clock t.kernel)
    (World_switch.retry_backoff_cost (Kernel.cost t.kernel) ~attempt)

let ioctl_enter t =
  (* Fault site at the device-node boundary: an ioctl that never reached
     the kernel module (EINTR, dropped request).  It fires before the
     syscall is charged, so a transient fault is absorbed by reissuing
     the crossing, exactly like userspace retrying on EINTR. *)
  Fault.with_retries ~backoff:(backoff t) (fun () -> Fault.point "os.ioctl");
  Kernel.null_syscall t.kernel

(* The hypercall gate.  A fault at "hypercall.dispatch" models a VMMCALL
   that never reached the monitor: nothing is mutated yet, so a transient
   one is retried, like the real module reissuing an interrupted VMMCALL. *)
let gate t op =
  Fault.with_retries ~backoff:(backoff t) (fun () ->
      Fault.point "hypercall.dispatch";
      op t.monitor)

let ioctl_create_enclave t secs =
  ioctl_enter t;
  gate t (fun m -> Monitor.ecreate m secs)

let ioctl_add_page t enclave ~vpn ~content ~perms ~page_type =
  ioctl_enter t;
  gate t (fun m -> Monitor.eadd m enclave ~vpn ~content ~perms ~page_type)

let ioctl_add_tcs t enclave ~vpn ~entry_va ~nssa ~ssa_base_vpn =
  ioctl_enter t;
  gate t (fun m ->
      Monitor.eadd_tcs m enclave ~vpn ~entry_va ~nssa ~ssa_base_vpn)

let ioctl_pin_range t proc ~va ~len =
  ioctl_enter t;
  let first = Addr.page_of va in
  let last = Addr.page_of (va + len - 1) in
  for vpn = first to last do
    match Kernel.resolve_frame t.kernel proc ~vpn with
    | _ -> Process.pin proc ~vpn
    | exception Not_found ->
        (* A failed ioctl must leave the process as it found it: unwind
           every pin this call took, or the pages stay unreclaimable for
           the life of the process. *)
        for unpin = first to vpn - 1 do
          Process.unpin proc ~vpn:unpin
        done;
        invalid_arg
          (Printf.sprintf "ioctl_pin_range: page 0x%x not resident" vpn)
  done

let unpin_range proc ~va ~len =
  for vpn = Addr.page_of va to Addr.page_of (va + len - 1) do
    Process.unpin proc ~vpn
  done

let ioctl_init_enclave t proc enclave ~sigstruct ~ms_base ~ms_size =
  ioctl_enter t;
  let first = Addr.page_of ms_base in
  let last = Addr.page_of (ms_base + ms_size - 1) in
  let pages = ref [] in
  for vpn = last downto first do
    if not (Process.is_pinned proc ~vpn) then
      invalid_arg
        (Printf.sprintf "ioctl_init_enclave: page 0x%x not pinned" vpn);
    match Kernel.resolve_frame t.kernel proc ~vpn with
    | frame -> pages := (vpn, frame) :: !pages
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf "ioctl_init_enclave: page 0x%x not resident" vpn)
  done;
  gate t (fun m ->
      Monitor.einit m enclave ~sigstruct
        ~marshalling:(ms_base, ms_size, !pages))

let ioctl_destroy_enclave t proc enclave =
  ioctl_enter t;
  (* The pins taken for the marshalling buffer share the enclave's
     lifetime: EREMOVE is where the module must release them, otherwise
     every create/destroy cycle leaks pinned pages. *)
  let marshalling = enclave.Enclave.marshalling in
  gate t (fun m -> Monitor.eremove m enclave);
  match marshalling with
  | None -> ()
  | Some (ms_base, ms_size) -> unpin_range proc ~va:ms_base ~len:ms_size
