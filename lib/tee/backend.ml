open Hyperenclave_hw
open Hyperenclave_monitor
open Hyperenclave_sdk
module Sgx_model = Hyperenclave_sgx.Sgx_model

type env = {
  clock : Cycles.t;
  compute : int -> unit;
  mem : Mem_sim.t;
  ocall : id:int -> ?data:bytes -> unit -> bytes;
  interrupt : unit -> unit;
  heap_write : off:int -> bytes -> unit;
  heap_read : off:int -> len:int -> bytes;
  backend_name : string;
}

type handler = env -> bytes -> bytes

type kind = Native | Hyperenclave of Sgx_types.operation_mode | Sgx

let kind_name = function
  | Native -> "native"
  | Hyperenclave mode -> Sgx_types.mode_name mode
  | Sgx -> "Intel SGX"

type t = {
  name : string;
  kind : kind;
  clock : Cycles.t;
  mem : Mem_sim.t;
  call : id:int -> ?data:bytes -> direction:Edge.direction -> unit -> bytes;
  urts : Urts.t option;
      (** The SDK handle behind a HyperEnclave backend ([None] for native
          and the SGX model): what a scheduler submits jobs against. *)
  identity : bytes option;
      (** MRENCLAVE where the backend has one ([None] for native). *)
  destroy : unit -> unit;
}

(* Backends without a demand-paged enclave heap (native, the SGX model)
   still expose [heap_write]/[heap_read] so heap-walking workloads run
   unmodified everywhere; a growable scratch buffer stands in for it. *)
let scratch_heap () =
  let buf = ref (Bytes.create 4096) in
  let ensure n =
    if Bytes.length !buf < n then begin
      let grown = Bytes.make (max n (2 * Bytes.length !buf)) '\000' in
      Bytes.blit !buf 0 grown 0 (Bytes.length !buf);
      buf := grown
    end
  in
  let write ~off data =
    if off < 0 then invalid_arg "heap_write: negative offset";
    ensure (off + Bytes.length data);
    Bytes.blit data 0 !buf off (Bytes.length data)
  in
  let read ~off ~len =
    if off < 0 || len < 0 then invalid_arg "heap_read: negative range";
    ensure (off + len);
    Bytes.sub !buf off len
  in
  (write, read)

let native ~clock ~cost ~rng ~handlers ~ocalls =
  let mem =
    Mem_sim.create ~clock ~cost ~rng:(Rng.split rng) ~engine:Mem_crypto.Plain ()
  in
  let ocall_tbl = Hashtbl.create 16 in
  List.iter (fun (id, h) -> Hashtbl.replace ocall_tbl id h) ocalls;
  let heap = scratch_heap () in
  let env =
    {
      clock;
      compute = (fun n -> Cycles.tick clock n);
      mem;
      ocall =
        (fun ~id ?(data = Bytes.empty) () ->
          match Hashtbl.find_opt ocall_tbl id with
          | Some h -> h data
          | None -> invalid_arg (Printf.sprintf "native: unknown OCALL %d" id));
      (* Native code takes timer interrupts too: handler plus scheduler
         work, without any enclave exit on top. *)
      interrupt = (fun () -> Cycles.tick clock (1_800 + cost.Cost_model.os_ctxsw));
      heap_write = (let w, _ = heap in w);
      heap_read = (let _, r = heap in r);
      backend_name = "native";
    }
  in
  let ecall_tbl = Hashtbl.create 16 in
  List.iter (fun (id, h) -> Hashtbl.replace ecall_tbl id h) handlers;
  {
    name = "native";
    kind = Native;
    clock;
    mem;
    call =
      (fun ~id ?(data = Bytes.empty) ~direction:_ () ->
        match Hashtbl.find_opt ecall_tbl id with
        | Some h -> h env data
        | None -> invalid_arg (Printf.sprintf "native: unknown ECALL %d" id));
    urts = None;
    identity = None;
    destroy = (fun () -> ());
  }

let hyperenclave (platform : Platform.t) ~mode ~config ~handlers ~ocalls =
  let translation =
    match mode with
    | Sgx_types.HU -> Mem_sim.One_level
    | Sgx_types.GU | Sgx_types.P -> Mem_sim.Nested
  in
  let mem =
    Mem_sim.create ~clock:platform.Platform.clock ~cost:platform.Platform.cost
      ~rng:(Rng.split platform.Platform.rng)
      ~engine:Mem_crypto.Sme ~translation ()
  in
  let env_of_tenv (tenv : Tenv.t) =
    {
      clock = tenv.Tenv.clock;
      compute = tenv.Tenv.compute;
      mem;
      ocall =
        (fun ~id ?data () ->
          (* EEXIT/EENTER around the OCALL flush the enclave's TLB. *)
          let reply = tenv.Tenv.ocall ~id ?data Edge.In_out in
          Mem_sim.tlb_flush mem;
          reply);
      interrupt = tenv.Tenv.interrupt_now;
      (* Real demand-paged enclave heap: touching a wide offset range
         commits EPC frames and, on small platforms, forces EWB/ELDU —
         which is how the chaos suite creates EPC pressure through the
         backend-neutral interface. *)
      heap_write =
        (fun ~off data -> tenv.Tenv.write ~va:(tenv.Tenv.heap_base + off) data);
      heap_read =
        (fun ~off ~len -> tenv.Tenv.read ~va:(tenv.Tenv.heap_base + off) ~len);
      backend_name = Sgx_types.mode_name mode;
    }
  in
  (* The SDK hands every call its handle's one trusted environment, so
     the env built around it on the first call serves every later one. *)
  let env = ref None in
  let env_for tenv =
    match !env with
    | Some (seen, e) when seen == tenv -> e
    | Some _ | None ->
        let e = env_of_tenv tenv in
        env := Some (tenv, e);
        e
  in
  let ecalls =
    List.map
      (fun (id, h) -> (id, fun tenv input -> h (env_for tenv) input))
      handlers
  in
  let urts =
    Urts.create ~kmod:platform.Platform.kmod ~proc:platform.Platform.proc
      ~rng:platform.Platform.rng ~signer:platform.Platform.signer ~config
      ~ecalls ~ocalls
  in
  {
    name = Sgx_types.mode_name mode;
    kind = Hyperenclave mode;
    clock = platform.Platform.clock;
    mem;
    call =
      (fun ~id ?(data = Bytes.empty) ~direction () ->
        Mem_sim.tlb_flush mem;
        Urts.ecall urts ~id ~data ~direction ());
    urts = Some urts;
    identity = Some (Urts.mrenclave urts);
    destroy = (fun () -> Urts.destroy urts);
  }

let sgx ~clock ~cost ~rng ?(code_seed = "tee-backend-sgx") ~handlers ~ocalls
    () =
  let epc_bytes = Platform.sgx_epc_bytes in
  let mem =
    Mem_sim.create ~clock ~cost ~rng:(Rng.split rng)
      ~engine:(Mem_crypto.Mee { epc_bytes })
      ()
  in
  let sgx_platform =
    Sgx_model.create_platform ~clock ~cost ~rng:(Rng.split rng) ~epc_bytes
  in
  let heap = scratch_heap () in
  let env_of_enclave enclave =
    {
      clock;
      compute = (fun n -> Sgx_model.compute enclave n);
      mem;
      ocall =
        (fun ~id ?data () ->
          let reply = Sgx_model.ocall enclave ~id ?data () in
          Mem_sim.tlb_flush mem;
          reply);
      interrupt = (fun () -> Sgx_model.interrupt enclave);
      heap_write = (let w, _ = heap in w);
      heap_read = (let _, r = heap in r);
      backend_name = "Intel SGX";
    }
  in
  let ecalls =
    List.map
      (fun (id, h) -> (id, fun enclave input -> h (env_of_enclave enclave) input))
      handlers
  in
  let signer, _ = Hyperenclave_crypto.Signature.generate rng in
  let enclave =
    Sgx_model.create_enclave sgx_platform ~code_seed ~signer ~ecalls ~ocalls
  in
  {
    name = "Intel SGX";
    kind = Sgx;
    clock;
    mem;
    call =
      (fun ~id ?(data = Bytes.empty) ~direction:_ () ->
        Mem_sim.tlb_flush mem;
        Sgx_model.ecall enclave ~id ~data ());
    urts = None;
    identity = Some (Sgx_model.mrenclave enclave);
    destroy = (fun () -> ());
  }

(* -------------------------------------------------------------------- *)
(* Construction                                                         *)

type config = {
  kind : kind;
  ms_bytes : int option;
  code_seed : string option;
  handlers : (int * handler) list;
  ocalls : (int * (bytes -> bytes)) list;
}

let config kind =
  {
    kind;
    ms_bytes = None;
    code_seed = None;
    handlers = [];
    ocalls = [];
  }

let create (platform : Platform.t) (c : config) =
  let only_for ok field value =
    if Option.is_some value && not ok then
      invalid_arg
        (Printf.sprintf "Backend.create: %s is meaningless for the %s backend"
           field (kind_name c.kind))
  in
  let enclave = match c.kind with Hyperenclave _ -> true | _ -> false in
  only_for enclave "ms_bytes" c.ms_bytes;
  only_for (c.kind <> Native) "code_seed" c.code_seed;
  match c.kind with
  | Native ->
      native ~clock:platform.Platform.clock ~cost:platform.Platform.cost
        ~rng:platform.Platform.rng ~handlers:c.handlers ~ocalls:c.ocalls
  | Hyperenclave mode ->
      let d = Urts.default_config mode in
      let config =
        {
          d with
          Urts.ms_bytes = Option.value c.ms_bytes ~default:d.Urts.ms_bytes;
          code_seed = Option.value c.code_seed ~default:d.Urts.code_seed;
        }
      in
      hyperenclave platform ~mode ~config ~handlers:c.handlers ~ocalls:c.ocalls
  | Sgx ->
      sgx ~clock:platform.Platform.clock ~cost:platform.Platform.cost
        ~rng:platform.Platform.rng ?code_seed:c.code_seed ~handlers:c.handlers
        ~ocalls:c.ocalls ()

(* -------------------------------------------------------------------- *)
(* Trichotomy oracle                                                    *)

type outcome =
  | Success of bytes
  | Typed_error of string
  | Violation of string

let outcome_name = function
  | Success _ -> "success"
  | Typed_error _ -> "typed-error"
  | Violation _ -> "violation"

(* The only acceptable endings of a call under fault injection.  A clean
   reply, a typed refusal the application can act on, or the monitor
   detecting tampering — anything else (an unexpected exception, silent
   corruption checked by the caller against the reply) is a bug in the
   fault handling, not in the workload.

   The audit of what each backend's edge can raise for malformed or
   unlucky inputs: the SDK's [Enclave_error] (unknown id, ring overflow,
   oversized payloads, TCS exhaustion), [Fault.Injected] (exhausted
   retries or a permanent plan entry), [Invalid_argument] (the native
   dispatch tables and argument validation), the SGX model's [Sgx_error]
   (its own typed refusals) and [Unsupported] (SGX1 restrictions such as
   EDMM), and the monitor's deliberate [Security_violation].  All of the
   first five are typed refusals; nothing else may cross the API. *)
let protected_call t ~id ?(data = Bytes.empty) ~direction () =
  match t.call ~id ~data ~direction () with
  | reply -> Success reply
  | exception Monitor.Security_violation msg -> Violation msg
  | exception Hyperenclave_fault.Fault.Injected { site; kind } ->
      Typed_error (Hyperenclave_fault.Fault.message ~site kind)
  | exception Urts.Enclave_error msg -> Typed_error ("enclave: " ^ msg)
  | exception Invalid_argument msg -> Typed_error ("invalid-argument: " ^ msg)
  | exception Sgx_model.Sgx_error msg -> Typed_error ("sgx: " ^ msg)
  | exception Sgx_model.Unsupported msg -> Typed_error ("unsupported: " ^ msg)
