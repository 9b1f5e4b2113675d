open Hyperenclave_hw
open Hyperenclave_os
module Monitor = Hyperenclave_monitor.Monitor
module Tpm = Hyperenclave_tpm.Tpm

type t = {
  clock : Cycles.t;
  cost : Cost_model.t;
  rng : Rng.t;
  mem : Phys_mem.t;
  cpu : Mmu.t;
  iommu : Iommu.t;
  tpm : Tpm.t;
  kernel : Kernel.t;
  kmod : Kmod.t;
  monitor : Monitor.t;
  boot_chain : Boot.component list;
  proc : Process.t;
  signer : Hyperenclave_crypto.Signature.private_key;
}

let llc_bytes = 8 * 1024 * 1024
let sgx_epc_bytes = 93 * 1024 * 1024
let mib = 1024 * 1024

let create ?(seed = 42L) ?(cost = Cost_model.default) ?(phys_mb = 256)
    ?(os_mb = 128) ?(monitor_mb = 4) ?tamper_boot () =
  let clock = Cycles.create () in
  let rng = Rng.create ~seed in
  let mem = Phys_mem.create ~size_bytes:(phys_mb * mib) in
  let iommu = Iommu.create () in
  Iommu.attach iommu ~device:"nic";
  Iommu.attach iommu ~device:"disk";
  let os_frames = os_mb * mib / Addr.page_size in
  (* Devices may initially DMA anywhere in OS memory; the monitor strips
     the reservation at launch. *)
  Iommu.grant iommu ~device:"nic" ~first_frame:0 ~nframes:(Phys_mem.frames mem);
  Iommu.grant iommu ~device:"disk" ~first_frame:0 ~nframes:(Phys_mem.frames mem);
  let boot_gpt = Page_table.create () in
  let cpu = Mmu.create ~clock ~cost ~rng:(Rng.split rng) ~gpt:boot_gpt () in
  let tpm = Tpm.manufacture ~clock ~cost ~rng:(Rng.split rng) in
  Tpm.startup tpm;
  (* CRTM -> BIOS -> grub -> kernel -> initramfs, measured as they run. *)
  let boot_chain = Boot.default_chain (Rng.create ~seed:(Int64.add seed 1000L)) in
  let boot_chain =
    match tamper_boot with
    | None -> boot_chain
    | Some name -> Boot.tamper boot_chain ~name
  in
  let boot_events = Boot.measured_boot tpm boot_chain in
  let kernel =
    Kernel.create ~clock ~cost ~rng:(Rng.split rng) ~mem ~cpu ~iommu
      ~os_base_frame:0 ~os_nframes:os_frames
  in
  let reserved_nframes = Phys_mem.frames mem - os_frames in
  let monitor =
    Monitor.create ~clock ~cost ~rng:(Rng.split rng) ~mem ~cpu ~iommu ~tpm
      {
        Monitor.reserved_base_frame = os_frames;
        reserved_nframes;
        monitor_private_frames = monitor_mb * mib / Addr.page_size;
      }
  in
  (* The RustMonitor image shipped in the initramfs; its identity is
     stable for a given build seed so attestation golden values hold. *)
  let monitor_image =
    Rng.bytes (Rng.create ~seed:(Int64.add seed 2000L)) 32768
  in
  let kmod =
    Kmod.load ~kernel ~tpm ~monitor ~monitor_image ~boot_log:boot_events
  in
  let proc = Kernel.spawn kernel in
  Kernel.switch_to kernel proc;
  let signer, _public =
    Hyperenclave_crypto.Signature.generate (Rng.create ~seed:(Int64.add seed 3000L))
  in
  {
    clock;
    cost;
    rng;
    mem;
    cpu;
    iommu;
    tpm;
    kernel;
    kmod;
    monitor;
    boot_chain;
    proc;
    signer;
  }
