(* Figure 10: virtualization overhead on SPEC CPU 2017 INTspeed
   (Appendix A.2).  Paper: less than 1% in most benchmarks. *)

open Hyperenclave
module Spec_cpu = Hyperenclave_workloads.Spec_cpu

let run () =
  Util.banner "Figure 10"
    "SPEC CPU 2017 INTspeed stand-ins, native vs normal VM; paper: <1% \
     overhead in most benchmarks.";
  let platform = Platform.create ~seed:909L () in
  let results = Spec_cpu.run platform in
  Util.print_table
    ~columns:[ "benchmark"; "native Mcyc"; "VM Mcyc"; "overhead" ]
    (List.map
       (fun (r : Spec_cpu.result) ->
         [
           r.Spec_cpu.name;
           Printf.sprintf "%.2f" (float_of_int r.Spec_cpu.native_cycles /. 1e6);
           Printf.sprintf "%.2f" (float_of_int r.Spec_cpu.vm_cycles /. 1e6);
           Util.pct r.Spec_cpu.overhead_pct;
         ])
       results)
