open Hyperenclave_hw

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
  | Fault of string

let number = function
  | Ecreate _ -> 0x00
  | Eadd _ -> 0x01
  | Einit _ -> 0x02
  | Eremove _ -> 0x03
  | Eadd_tcs _ -> 0x04
  | Eenter _ -> 0x10
  | Eexit _ -> 0x11
  | Eresume _ -> 0x12
  | Emodpr _ -> 0x20
  | Emodpe _ -> 0x21
  | Eremove_page _ -> 0x22
  | Egetkey _ -> 0x30
  | Ereport _ -> 0x31
  | Gen_quote _ -> 0x32

let name = function
  | Ecreate _ -> "ECREATE"
  | Eadd _ -> "EADD"
  | Eadd_tcs _ -> "EADD(TCS)"
  | Einit _ -> "EINIT"
  | Eremove _ -> "EREMOVE"
  | Eenter _ -> "EENTER"
  | Eexit _ -> "EEXIT"
  | Eresume _ -> "ERESUME"
  | Emodpr _ -> "EMODPR"
  | Emodpe _ -> "EMODPE"
  | Eremove_page _ -> "EREMOVE(page)"
  | Egetkey _ -> "EGETKEY"
  | Ereport _ -> "EREPORT"
  | Gen_quote _ -> "GEN_QUOTE"

let dispatch monitor request =
  (* Fault site at the trust-boundary entry, before any monitor state is
     touched: an injected fault here models a VMMCALL that never reached
     the handler (dropped, truncated, or refused at the gate).  Transient
     faults are retried by the kernel module's ioctl path. *)
  Hyperenclave_fault.Fault.point "hypercall.dispatch";
  try
    match request with
    | Ecreate secs -> Enclave_handle (Monitor.ecreate monitor secs)
    | Eadd { enclave; vpn; content; perms; page_type } ->
        Monitor.eadd monitor enclave ~vpn ~content ~perms ~page_type;
        Ok
    | Eadd_tcs { enclave; vpn; entry_va; nssa; ssa_base_vpn } ->
        Monitor.eadd_tcs monitor enclave ~vpn ~entry_va ~nssa ~ssa_base_vpn;
        Ok
    | Einit { enclave; sigstruct; marshalling } ->
        Monitor.einit monitor enclave ~sigstruct ~marshalling;
        Ok
    | Eremove enclave ->
        Monitor.eremove monitor enclave;
        Ok
    | Eenter { enclave; tcs; return_va } ->
        Monitor.eenter monitor enclave ~tcs ~return_va;
        Ok
    | Eexit { enclave; target_va } ->
        Monitor.eexit monitor enclave ~target_va;
        Ok
    | Eresume { enclave; tcs } ->
        Monitor.eresume monitor enclave ~tcs;
        Ok
    | Emodpr { enclave; vpn; perms } ->
        Monitor.emodpr monitor enclave ~vpn ~perms;
        Ok
    | Emodpe { enclave; vpn; perms } ->
        Monitor.emodpe monitor enclave ~vpn ~perms;
        Ok
    | Eremove_page { enclave; vpn } ->
        Monitor.eremove_page monitor enclave ~vpn;
        Ok
    | Egetkey { enclave; name } -> Key (Monitor.egetkey monitor enclave name)
    | Ereport { enclave; report_data } ->
        Report (Monitor.ereport monitor enclave ~report_data)
    | Gen_quote { enclave; report_data; nonce } ->
        Quote (Monitor.gen_quote monitor enclave ~report_data ~nonce)
  with Monitor.Security_violation message -> Fault message
