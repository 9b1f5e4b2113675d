open Hyperenclave_hw
open Hyperenclave_monitor

type t = {
  mode : Sgx_types.operation_mode;
  clock : Cycles.t;
  cost : Cost_model.t;
  read : va:int -> len:int -> bytes;
  write : va:int -> bytes -> unit;
  touch : va:int -> write:bool -> unit;
  malloc : int -> int;
  heap_base : int;
  ocall : id:int -> ?data:bytes -> Edge.direction -> bytes;
  ocall_switchless : id:int -> ?data:bytes -> unit -> bytes;
  compute : int -> unit;
  getkey : Sgx_types.key_name -> bytes;
  report : report_data:bytes -> Sgx_types.report;
  verify_report : Sgx_types.report -> bool;
  seal : bytes -> bytes;
  unseal : bytes -> bytes;
  seal_versioned : bytes -> bytes;
  unseal_versioned : bytes -> bytes;
  set_page_perms : vpn:int -> perms:Page_table.perms -> grant:bool -> unit;
  register_exception_handler : vector:string -> Enclave.exn_handler -> unit;
  raise_exception : Sgx_types.exception_vector -> unit;
  interrupt_now : unit -> unit;
  arm_interrupt_guard : window_cycles:int -> threshold:int -> unit;
  interrupt_alarms : unit -> int;
  ms_read : off:int -> len:int -> bytes;
  ms_write : off:int -> bytes -> unit;
  ms_base : int;
  ms_size : int;
  enclave_id : int;
}

type handler = t -> bytes -> bytes
