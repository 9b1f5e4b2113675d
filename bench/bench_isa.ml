(* Cross-platform projection (Sec. 8): the Table-1 edge-call costs under
   the ARMv8 and RISC-V mode mappings, measured through the full
   monitor/SDK paths on a platform built with the projected cost model.
   x86 numbers are the paper's measurements; the other two are
   projections (see lib/monitor/isa.mli). *)

open Hyperenclave
module Isa = Hyperenclave_monitor.Isa

let measure_ecall isa mode =
  let cost = Isa.scale_cost_model isa Cost_model.default in
  let platform = Platform.create ~seed:901L ~cost () in
  let backend =
    Backend.create platform
      {
        (Backend.config (Backend.Hyperenclave mode)) with
        Backend.handlers = [ (1, fun _ _ -> Bytes.empty) ];
      }
  in
  let samples =
    List.init 300 (fun _ ->
        let _, c =
          Cycles.time platform.Platform.clock (fun () ->
              backend.Backend.call ~id:1 ~direction:Edge.In ())
        in
        c)
  in
  backend.Backend.destroy ();
  Util.median samples

let run () =
  Util.banner "Cross-platform projection (Sec. 8)"
    "Empty-ECALL cost under each ISA's mode mapping.  x86 = measured \
     constants; ARM/RISC-V scale the transition primitives by published \
     trap-cost ratios (projection, as the paper defers ports to future \
     work).";
  let rows =
    List.concat_map
      (fun isa ->
        List.map
          (fun mode ->
            [
              Isa.name isa;
              Sgx_types.mode_name mode;
              Isa.secure_mode isa mode;
              Util.cyc (measure_ecall isa mode);
            ])
          Sgx_types.all_modes)
      Isa.all
  in
  Util.print_table ~columns:[ "ISA"; "mode"; "secure mode maps to"; "ECALL" ] rows;
  Util.note
    "\nMonitor runs in: %s / %s / %s.\n"
    (Isa.monitor_mode Isa.X86_64) (Isa.monitor_mode Isa.Armv8)
    (Isa.monitor_mode Isa.Riscv_h)
