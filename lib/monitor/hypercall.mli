(** The hypercall ABI between the normal world and RustMonitor.

    Sec. 3.4/5.2: the kernel module "provides similar functionalities by
    invoking RustMonitor through hypercalls, and exposes the
    functionalities to the applications by the ioctl() interfaces", and
    the SDK replaces the SGX user leaf functions with hypercalls.  This
    module is that boundary made explicit: one numbered request type, one
    dispatcher, one result type — the single entry point a verification
    effort (Sec. 5.1) would reason about.

    The typed [Monitor] functions remain the implementation; [dispatch]
    is a thin, total router over them, so both call paths stay in sync by
    construction. *)

open Hyperenclave_hw

(** Requests, tagged with their vector numbers (shown by {!number}). *)
type request =
  | Ecreate of Sgx_types.secs
  | Eadd of {
      enclave : Enclave.t;
      vpn : int;
      content : bytes;
      perms : Page_table.perms;
      page_type : Sgx_types.page_type;
    }
  | Eadd_tcs of {
      enclave : Enclave.t;
      vpn : int;
      entry_va : int;
      nssa : int;
      ssa_base_vpn : int;
    }
  | Einit of {
      enclave : Enclave.t;
      sigstruct : Sgx_types.sigstruct;
      marshalling : int * int * (int * int) list;
    }
  | Eremove of Enclave.t
  | Eenter of { enclave : Enclave.t; tcs : Sgx_types.tcs; return_va : int }
  | Eexit of { enclave : Enclave.t; target_va : int }
  | Eresume of { enclave : Enclave.t; tcs : Sgx_types.tcs }
  | Emodpr of { enclave : Enclave.t; vpn : int; perms : Page_table.perms }
  | Emodpe of { enclave : Enclave.t; vpn : int; perms : Page_table.perms }
  | Eremove_page of { enclave : Enclave.t; vpn : int }
  | Egetkey of { enclave : Enclave.t; name : Sgx_types.key_name }
  | Ereport of { enclave : Enclave.t; report_data : bytes }
  | Gen_quote of { enclave : Enclave.t; report_data : bytes; nonce : bytes }

type result =
  | Ok
  | Enclave_handle of Enclave.t
  | Key of bytes
  | Report of Sgx_types.report
  | Quote of Monitor.quote
  | Fault of string  (** a rejected hypercall (Security_violation text) *)

val number : request -> int
(** The ABI vector (stable; mirrors the SGX leaf numbering where one
    exists). *)

val name : request -> string

val dispatch : Monitor.t -> request -> result
(** Route to the monitor.  Security violations come back as [Fault];
    programming errors (invalid arguments) still raise. *)
