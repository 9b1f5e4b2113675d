open Hyperenclave_hw
open Hyperenclave_crypto

type lifecycle = Uninitialized | Initialized | Dead

type stats = {
  mutable ecalls : int;
  mutable ocalls : int;
  mutable aexs : int;
  mutable page_faults : int;
  mutable dyn_pages : int;
  mutable in_enclave_exceptions : int;
}

type exn_handler = Sgx_types.exception_vector -> bool

type interrupt_guard = {
  window_cycles : int;
  threshold : int;
  mutable window_start : int;
  mutable count : int;
  mutable alarms : int;
}

type t = {
  id : int;
  secs : Sgx_types.secs;
  gpt : Page_table.t;
  npt : Page_table.t option;
  mutable lifecycle : lifecycle;
  mutable measurement_ctx : Sha256.ctx option;
  mutable mrenclave : bytes;
  mutable mrsigner : bytes;
  mutable isv_prod_id : int;
  mutable isv_svn : int;
  mutable tcs_list : Sgx_types.tcs list;
  mutable marshalling : (int * int) option;
  mutable handlers : (string * exn_handler) list;
  mutable interrupt_guard : interrupt_guard option;
  mutable entered : bool;
  mutable return_va : int;
  mutable regs : Vcpu.regs;
  stats : stats;
  self : t option;
}

let mode t = t.secs.Sgx_types.attributes.Sgx_types.mode

let make ~id ~(secs : Sgx_types.secs) =
  if not (Addr.is_aligned secs.base_va) || not (Addr.is_aligned secs.size) then
    invalid_arg "Enclave.make: ELRANGE must be page aligned";
  let ctx = Sha256.init () in
  Sha256.update ctx (Measure.ecreate_chunk secs);
  let npt =
    match secs.attributes.mode with
    | Sgx_types.GU | Sgx_types.P -> Some (Page_table.create ())
    | Sgx_types.HU -> None
  in
  let rec t =
    {
      id;
      secs;
      gpt = Page_table.create ();
      npt;
      lifecycle = Uninitialized;
      measurement_ctx = Some ctx;
      mrenclave = Bytes.empty;
      mrsigner = Bytes.empty;
      isv_prod_id = 0;
      isv_svn = 0;
      tcs_list = [];
      marshalling = None;
      handlers = [];
      interrupt_guard = None;
      entered = false;
      return_va = 0;
      regs = Vcpu.fresh ~entry:secs.base_va;
      stats =
        {
          ecalls = 0;
          ocalls = 0;
          aexs = 0;
          page_faults = 0;
          dyn_pages = 0;
          in_enclave_exceptions = 0;
        };
      self = Some t;
    }
  in
  t

let in_elrange t ~va =
  va >= t.secs.Sgx_types.base_va && va < t.secs.Sgx_types.base_va + t.secs.Sgx_types.size

let elrange_pages t = t.secs.Sgx_types.size / Addr.page_size

let in_marshalling t ~va ~len =
  match t.marshalling with
  | None -> false
  | Some (base, size) -> len >= 0 && va >= base && va + len <= base + size

let measure_chunk t chunk =
  match t.measurement_ctx with
  | None -> invalid_arg "Enclave.measure_chunk: measurement finalized"
  | Some ctx -> Sha256.update ctx chunk

let peek_measurement t =
  match t.measurement_ctx with
  | None -> invalid_arg "Enclave.peek_measurement: measurement finalized"
  | Some ctx -> Sha256.finalize (Sha256.copy ctx)

let commit_measurement t digest =
  t.measurement_ctx <- None;
  t.mrenclave <- digest

let register_handler t ~vector handler =
  t.handlers <- (vector, handler) :: List.remove_assoc vector t.handlers

let find_handler t ~vector = List.assoc_opt vector t.handlers
let free_tcs t = List.find_opt (fun (tcs : Sgx_types.tcs) -> not tcs.busy) t.tcs_list

let find_tcs t ~vpn =
  List.find_opt (fun (tcs : Sgx_types.tcs) -> tcs.tcs_vpn = vpn) t.tcs_list
