open Hyperenclave_hw
open Hyperenclave_tee
module Sched = Hyperenclave_sched.Sched
module Urts = Hyperenclave_sdk.Urts
module Edge = Hyperenclave_sdk.Edge
module Monitor = Hyperenclave_monitor.Monitor
module World_switch = Hyperenclave_monitor.World_switch
module Sgx_types = Hyperenclave_monitor.Sgx_types
module Verifier = Hyperenclave_attestation.Verifier
module Signature = Hyperenclave_crypto.Signature
module Fault = Hyperenclave_fault.Fault
module Telemetry = Hyperenclave_obs.Telemetry

include Msg

(* Reject kinds in constructor order: each kind's short label and its
   telemetry counter are built once, so a reject concatenates nothing. *)
let reject_kinds =
  [|
    "handshake-failed"; "channel-binding"; "bad-wire"; "unknown-key-share";
    "replayed-nonce"; "unknown-tenant"; "unknown-session"; "unsupported";
    "bad-auth"; "bad-sequence"; "backpressure"; "quota-exhausted";
    "session-fault"; "bad-ticket"; "ticket-expired"; "session-migrated";
    "tenant-migrated"; "tenant-busy"; "import-conflict"; "stale-reply";
  |]

let reject_kind = function
  | Handshake_failed _ -> 0
  | Channel_binding_mismatch -> 1
  | Bad_wire _ -> 2
  | Unknown_key_share -> 3
  | Replayed_nonce -> 4
  | Unknown_tenant _ -> 5
  | Unknown_session _ -> 6
  | Unsupported _ -> 7
  | Bad_auth -> 8
  | Bad_sequence _ -> 9
  | Backpressure _ -> 10
  | Quota_exhausted _ -> 11
  | Session_fault _ -> 12
  | Bad_ticket _ -> 13
  | Ticket_expired -> 14
  | Session_migrated _ -> 15
  | Tenant_migrated _ -> 16
  | Tenant_busy _ -> 17
  | Import_conflict _ -> 18
  | Stale_reply -> 19

let reject_name r = reject_kinds.(reject_kind r)
let reject_counters = Array.map (fun k -> "serve.reject." ^ k) reject_kinds
let reject_counter r = reject_counters.(reject_kind r)

let pp_reject fmt = function
  | Handshake_failed f ->
      Format.fprintf fmt "handshake failed: %a" Verifier.pp_failure f
  | Channel_binding_mismatch ->
      Format.pp_print_string fmt "quote does not bind this transcript"
  | Bad_wire m -> Format.fprintf fmt "malformed wire: %s" m
  | Unknown_key_share -> Format.pp_print_string fmt "unknown key-exchange share"
  | Replayed_nonce -> Format.pp_print_string fmt "handshake nonce replayed"
  | Unknown_tenant n -> Format.fprintf fmt "unknown tenant %s" n
  | Unknown_session id -> Format.fprintf fmt "unknown session %d" id
  | Unsupported m -> Format.fprintf fmt "unsupported: %s" m
  | Bad_auth -> Format.pp_print_string fmt "request authentication failed"
  | Bad_sequence { expected; got } ->
      Format.fprintf fmt "bad sequence number: expected %d, got %d" expected got
  | Backpressure { tenant; queued; limit } ->
      Format.fprintf fmt "tenant %s queue full (%d/%d)" tenant queued limit
  | Quota_exhausted { tenant; spent; quota } ->
      Format.fprintf fmt "tenant %s cycle quota exhausted (%d/%d)" tenant spent
        quota
  | Session_fault m -> Format.fprintf fmt "session fault: %s" m
  | Bad_ticket m -> Format.fprintf fmt "bad session ticket: %s" m
  | Ticket_expired -> Format.pp_print_string fmt "session ticket expired"
  | Session_migrated { to_node } ->
      Format.fprintf fmt "session migrated to node %d" to_node
  | Tenant_migrated { tenant; to_node } ->
      Format.fprintf fmt "tenant %s migrated to node %d" tenant to_node
  | Tenant_busy { tenant; staged } ->
      Format.fprintf fmt "tenant %s has %d staged requests mid-flush" tenant
        staged
  | Import_conflict m -> Format.fprintf fmt "migration import conflict: %s" m
  | Stale_reply ->
      Format.pp_print_string fmt "reply read after its plane flushed again"

(* ---------------------------------------------------------------------- *)
(* Plane state                                                            *)

type config = {
  sched : Sched.config;
  max_queue : int;
  cycle_quota : int option;
  ticket_ttl : int;  (** session-ticket lifetime, shared-clock cycles *)
}

let default_config =
  {
    sched = { Sched.default_config with Sched.drop_on_error = true };
    max_queue = 64;
    cycle_quota = None;
    ticket_ttl = 1_000_000_000;
  }

(* Fixed plane geometry ({!state_stride_pages}, {!slot_bytes}), and the
   run of one session's staged requests a ring shard takes before the
   plane-wide rotor moves: small enough that one hot session spreads
   across every core, large enough that its replies cluster. *)
let state_stride_pages = 16
let slot_bytes = Channel.slot_bytes
let rotor_block = 8

(* Placeholder the stage arena is filled with: session id [-1] marks a
   dead entry, and a dead entry pins no client frame against the GC. *)
let no_request = { session_id = -1; seq = 0; ecall_id = 0; frame = Bytes.empty }

(* Flat admission arena, in admission order until a flush sorts it by
   session, recycled across flushes.  Per-flush columns: the ring shard
   of entry [i] (-1 when its session faulted) and its slot there. *)
type stage = {
  mutable sg_reqs : request array;
  mutable sg_shards : int array;
  mutable sg_slots : int array;
  mutable sg_n : int;
}

let stage_push (st : stage) req =
  let n = st.sg_n in
  if n = Array.length st.sg_reqs then begin
    (* Doubling growth: the only allocation the admission path ever does,
       and only until the arena reaches the tenant's high-water mark. *)
    let cap = max 16 (2 * n) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    st.sg_reqs <- grow st.sg_reqs no_request;
    st.sg_shards <- grow st.sg_shards 0;
    st.sg_slots <- grow st.sg_slots 0
  end;
  st.sg_reqs.(n) <- req;
  st.sg_n <- n + 1

(* One ring shard of a tenant, built on its first use with its
   scheduler job, so a flush builds no job, link or callback. *)
type lane = {
  ring : Urts.ring;
  entries : int array;
      (* slot -> stage index of the request staged there this flush: how
         the ring's in-enclave channel finds a slot's header *)
  mutable err : string option;  (* the ring's failure, one flush *)
  job : Sched.job;
}

type tenant = {
  t_name : string;
  c_requests : Telemetry.counter_handle;  (* "serve.tenant.<name>.requests" *)
  c_cycles : Telemetry.counter_handle;  (* "serve.tenant.<name>.cycles" *)
  backend : Backend.t;
  urts : Urts.t;  (* the enclave's SDK handle: rings, quotes, identity *)
  handler_ids : int list;
      (* the ECALLs a client may name: the caller's handlers, not the
         plane's reserved state ECALLs *)
  mutable queued : int;
  mutable spent : int;
  mutable budget : int;  (* max_int when unmetered *)
  mutable next_slot : int;
  mutable free_slots : int list;
      (* state slots recycled by [close_session], reused before
         [next_slot] grows the stride arena *)
  mutable t_migrated_to : int option;
      (* set by [retire_tenant] at migration cutover: new handshakes and
         resumes answer with a typed forward to the destination node *)
  stage : stage;
  lanes : lane option array;  (* per shard, built on first use *)
}

(* The plane's half of a session: its key material lives in the channel
   store under the same id. *)
type session = {
  s_id : int;
  tenant : tenant;
  state_slot : int;
  mutable s_pages : int;
      (* high-water EDMM page count: what a migration must carry so the
         destination can rebuild the session's committed state *)
}

type identity = { node_id : int; hapk : Signature.public_key }

type ledger = {
  flushes : int;
  served : int;
  serial_cycles : int;
  busy_cycles : int;
  slowest_cycles : int;
  critical_cycles : int;
}

let empty_ledger =
  {
    flushes = 0;
    served = 0;
    serial_cycles = 0;
    busy_cycles = 0;
    slowest_cycles = 0;
    critical_cycles = 0;
  }

type t = {
  platform : Platform.t;
  identity : identity;
  config : config;
  telemetry : Telemetry.t;
  c_request : Telemetry.counter_handle;
  c_admitted : Telemetry.counter_handle;
  c_ok : Telemetry.counter_handle;
  backoff : int -> unit;  (* transient-fault backoff on the platform clock *)
  sched : Sched.t;
  tenants : (string, tenant) Hashtbl.t;
  mutable tenant_order : string list;  (* reverse insertion order *)
  sessions : (int, session) Hashtbl.t;
  migrated : (int, int) Hashtbl.t;
      (* session id -> destination node: after cutover a straggler
         addressing a moved session gets a typed forward, not a bare
         unknown-session *)
  seen_nonces : (string, unit) Hashtbl.t;  (* the replay cache *)
  nonce_order : string Queue.t;  (* its FIFO eviction order *)
  channel : Channel.t;  (* the enclave's half: every session's secrets *)
  mutable next_session : int;
  mutable qe : Urts.t option;  (* lazily-built quoting enclave *)
  mutable destroyed : bool;
  (* --- data path --- *)
  shards : int;  (* ring shards per tenant = scheduler cores *)
  mutable rotor : int;
      (* plane-wide block rotor: each [rotor_block]-long run of staged
         requests takes the next shard, so both many-tenant and single
         hot-tenant flushes spread over every core *)
  fault_msgs : (int, string) Hashtbl.t;  (* session faults, one flush *)
  flushes_begun : int ref;
      (* a reply is readable while this still reads the flush that
         answered it ({!Msg.reply}) *)
  (* --- critical-path ledger --- *)
  mutable submit_cyc : int;  (* platform cycles inside [submit] since the last flush *)
  core_mark : int array;  (* per-core clock when the current flush began *)
  mutable ledger : ledger;
}

let fault_site = "serve.session"

(* Session ids are node-prefixed: node [n] issues ids from
   [n lsl session_id_bits] upward. *)
let session_id_bits = 20

(* Bound on [config.sched.batch], the sealed replies per setup charge. *)
let max_batch = 16

module Node_config = struct
  type serve_config = config

  type t = { identity : identity; serve : serve_config }

  let v ?(node_id = 0) ~platform serve =
    {
      identity = { node_id; hapk = Monitor.hapk platform.Platform.monitor };
      serve;
    }
end

let create_node ~platform (nc : Node_config.t) =
  let config = nc.Node_config.serve in
  let config =
    { config with sched = { config.sched with Sched.drop_on_error = true } }
  in
  if config.max_queue <= 0 then
    invalid_arg "Serve.create_node: max_queue must be positive";
  (match config.cycle_quota with
  | Some q when q <= 0 ->
      invalid_arg "Serve.create_node: cycle_quota must be positive"
  | _ -> ());
  if config.ticket_ttl <= 0 then
    invalid_arg "Serve.create_node: ticket_ttl must be positive";
  if config.sched.Sched.batch <= 0 || config.sched.Sched.batch > max_batch then
    invalid_arg
      (Printf.sprintf "Serve.create_node: sched.batch must be in [1, %d]"
         max_batch);
  let identity = nc.Node_config.identity in
  (* The identity must speak for THIS platform's monitor: a plane that
     advertised another node's hapk would hand out quotes its own
     monitor cannot back. *)
  if
    not
      (Signature.equal_public identity.hapk
         (Monitor.hapk platform.Platform.monitor))
  then
    invalid_arg
      "Serve.create_node: identity hapk does not match this platform's monitor";
  let telemetry = Monitor.telemetry platform.Platform.monitor in
  let rng = Rng.split platform.Platform.rng in
  let backoff attempt =
    Cycles.tick platform.Platform.clock
      (World_switch.retry_backoff_cost platform.Platform.cost ~attempt)
  in
  {
    platform;
    identity;
    config;
    telemetry;
    c_request = Telemetry.counter_handle telemetry "serve.request";
    c_admitted = Telemetry.counter_handle telemetry "serve.request.admitted";
    c_ok = Telemetry.counter_handle telemetry "serve.request.ok";
    backoff;
    sched =
      Sched.create ~shared_clock:platform.Platform.clock ~telemetry config.sched;
    tenants = Hashtbl.create 8;
    tenant_order = [];
    sessions = Hashtbl.create 16;
    migrated = Hashtbl.create 16;
    seen_nonces = Hashtbl.create 64;
    nonce_order = Queue.create ();
    channel =
      Channel.create ~clock:platform.Platform.clock ~rng ~backoff
        ~site:fault_site ~batch:config.sched.Sched.batch
        ~max_queue:config.max_queue;
    (* Node-prefixed ids: a migrated session keeps its id on the
       destination without colliding; node 0 counts 0, 1, 2, ... *)
    next_session = identity.node_id lsl session_id_bits;
    qe = None;
    destroyed = false;
    shards = max 1 config.sched.Sched.cores;
    rotor = 0;
    fault_msgs = Hashtbl.create 8;
    flushes_begun = ref 0;
    submit_cyc = 0;
    core_mark = Array.make (max 1 config.sched.Sched.cores) 0;
    ledger = empty_ledger;
  }

let identity t = t.identity

let reject t r =
  Telemetry.incr t.telemetry (reject_counter r);
  Error r

(* A chain of checks that may fail anywhere counts its reject once, at
   the end. *)
let rejected t = function Ok _ as ok -> ok | Error r -> reject t r

let ( let* ) = Result.bind

(* A session id that is neither live nor migrated is unknown; a migrated
   one forwards the caller to the node that now owns it. *)
let session_reject t id =
  match Hashtbl.find_opt t.migrated id with
  | Some to_node -> Session_migrated { to_node }
  | None -> Unknown_session id

(* The node's replay cache: the last [nonce_cache] handshake and resume
   nonces, FIFO.  Burns [nonce]; [true] if it was already burnt.  It
   checks outside input and guards no key: a replay it misses opens a
   session whose key takes the server's fresh share or nonce.  Callers
   refuse a nonce that is not [nonce_bytes] long before it gets here,
   so the cache holds at most 16 KiB of keys. *)
let nonce_cache = 1024
let nonce_bytes = 16

let nonce_replayed t nonce =
  let key = Bytes.to_string nonce in
  if Hashtbl.mem t.seen_nonces key then true
  else begin
    Hashtbl.add t.seen_nonces key ();
    Queue.push key t.nonce_order;
    if Queue.length t.nonce_order > nonce_cache then
      Hashtbl.remove t.seen_nonces (Queue.pop t.nonce_order);
    false
  end

(* ---------------------------------------------------------------------- *)
(* Session state ECALLs (EDMM-backed elastic per-session state)           *)

(* Little-endian u64 words: the wire form of every state-ECALL argument
   and count reply. *)
let u64s vs =
  let b = Bytes.create (8 * List.length vs) in
  List.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.of_int v)) vs;
  b

let get_u64 b off = Int64.to_int (Bytes.get_int64_le b off)

(* [off:8][n:8] with both non-negative: the commit and read arguments. *)
let get_range what input =
  if Bytes.length input <> 16 then
    invalid_arg ("serve: malformed session-state " ^ what);
  let off = get_u64 input 0 and n = get_u64 input 8 in
  if off < 0 || n < 0 then invalid_arg "serve: negative session-state range";
  (off, n)

(* Commit: touch [pages] heap pages from byte [off].  Each first touch
   demand-commits an EPC page through the monitor's EDMM path. *)
let state_ecall = 0x5e55

let state_handler (env : Backend.env) input =
  let off, pages = get_range "request" input in
  for i = 0 to pages - 1 do
    env.Backend.heap_write ~off:(off + (i * Addr.page_size)) (Bytes.make 1 '\001')
  done;
  u64s [ pages ]

(* Migration-time state movers: read a session's committed heap range out
   for export, write it back on the destination.  [off:8][len:8] in /
   raw bytes out, and [off:8][data...] in / [written:8] out. *)
let state_read_ecall = 0x5e56

let state_read_handler (env : Backend.env) input =
  let off, len = get_range "read" input in
  env.Backend.heap_read ~off ~len

let state_write_ecall = 0x5e57

let state_write_handler (env : Backend.env) input =
  if Bytes.length input < 8 then
    invalid_arg "serve: malformed session-state write";
  let off = get_u64 input 0 in
  if off < 0 then invalid_arg "serve: negative session-state offset";
  let data = Bytes.sub input 8 (Bytes.length input - 8) in
  env.Backend.heap_write ~off data;
  u64s [ Bytes.length data ]

let reserved_ecalls = [ state_ecall; state_read_ecall; state_write_ecall ]

let add_tenant t ~name (bc : Backend.config) =
  (match bc.Backend.kind with
  | Backend.Hyperenclave _ -> ()
  | Backend.Native | Backend.Sgx ->
      (* Every tenant quotes itself and serves through the slot ring;
         the baselines have neither an enclave report the monitor signs
         nor an SDK handle. *)
      invalid_arg
        (Printf.sprintf "Serve.add_tenant: %s is not a HyperEnclave backend"
           (Backend.kind_name bc.Backend.kind)));
  if Hashtbl.mem t.tenants name then
    invalid_arg (Printf.sprintf "Serve.add_tenant: duplicate tenant %s" name);
  List.iter
    (fun id ->
      if List.mem_assoc id bc.Backend.handlers then
        invalid_arg
          (Printf.sprintf
             "Serve.add_tenant: ECALL %#x is reserved for session state" id))
    reserved_ecalls;
  (* The tenant carves [shards] request and reply segments out of the
     marshalling buffer, each big enough to ring the whole admission
     queue: size the buffer up front so a worst-case flush (every staged
     request landing on one shard) can never outgrow a ring.  Quadruple
     [need] because the input region is half the buffer and the reply
     region a quarter, plus a page of alignment slack per segment.  Each
     slot keeps room for the reply tag its ring's channel seals. *)
  let need = 8 + (t.config.max_queue * (16 + slot_bytes + Urts.tag_bytes)) in
  let ms_min = Addr.align_up ((4 * t.shards * need) + (4 * Addr.page_size)) in
  let ms_bytes =
    max ms_min
      (Option.value bc.Backend.ms_bytes
         ~default:(Urts.default_config Sgx_types.GU).Urts.ms_bytes)
  in
  let backend =
    Backend.create t.platform
      {
        bc with
        Backend.ms_bytes = Some ms_bytes;
        handlers =
          bc.Backend.handlers
          @ [
              (state_ecall, state_handler);
              (state_read_ecall, state_read_handler);
              (state_write_ecall, state_write_handler);
            ];
      }
  in
  (* A HyperEnclave backend always carries its SDK handle. *)
  let urts = Option.get backend.Backend.urts in
  let tenant =
    {
      t_name = name;
      c_requests =
        Telemetry.counter_handle t.telemetry
          ("serve.tenant." ^ name ^ ".requests");
      c_cycles =
        Telemetry.counter_handle t.telemetry
          ("serve.tenant." ^ name ^ ".cycles");
      backend;
      urts;
      handler_ids = List.map fst bc.Backend.handlers;
      queued = 0;
      spent = 0;
      budget = (match t.config.cycle_quota with Some q -> q | None -> max_int);
      next_slot = 0;
      free_slots = [];
      t_migrated_to = None;
      stage = { sg_reqs = [||]; sg_shards = [||]; sg_slots = [||]; sg_n = 0 };
      lanes = Array.make t.shards None;
    }
  in
  Hashtbl.replace t.tenants name tenant;
  t.tenant_order <- name :: t.tenant_order;
  backend

(* ---------------------------------------------------------------------- *)
(* Session lifecycle                                                      *)

(* The only way into the reserved state ECALLs: one protected call, any
   failure a typed session fault. *)
let state_call (tn : tenant) ~id data =
  match
    Backend.protected_call tn.backend ~id ~data ~direction:Edge.In_out ()
  with
  | Backend.Success reply -> Ok reply
  | Backend.Typed_error m | Backend.Violation m -> Error (Session_fault m)

(* State slots fill the heap from its top down, clear of the LibOS
   files, whose extents the VFS allocates from offset 0 up. *)
let slot_offset (tn : tenant) slot =
  Urts.heap_bytes tn.urts - ((slot + 1) * state_stride_pages * Addr.page_size)

(* Demand-commit the first [pages] pages of [slot]'s state region;
   returns the page count the enclave reports. *)
let commit_pages tn ~slot ~pages =
  Result.map
    (fun reply -> get_u64 reply 0)
    (state_call tn ~id:state_ecall (u64s [ slot_offset tn slot; pages ]))

(* State slots are recycled through the tenant's free list before the
   stride arena grows, so open/close churn does not leak them. *)
let alloc_slot (tn : tenant) =
  match tn.free_slots with
  | slot :: rest ->
      tn.free_slots <- rest;
      slot
  | [] ->
      let slot = tn.next_slot in
      tn.next_slot <- slot + 1;
      slot

let next_session_id t = t.next_session

(* Only ids of this node's own space move the counter, and only
   forward: another node's id never moves it into that node's space. *)
let resume_session_ids t ~next =
  if (next - 1) lsr session_id_bits = t.identity.node_id && next > t.next_session
  then t.next_session <- next

(* The plane's half of a session, opened after the channel store's half
   under the same id ([t.next_session] for a fresh one). *)
let open_session t tn ~id ~slot ~pages =
  let s = { s_id = id; tenant = tn; state_slot = slot; s_pages = pages } in
  Hashtbl.replace t.sessions id s;
  s

let open_fresh t tn =
  let id = t.next_session in
  t.next_session <- id + 1;
  open_session t tn ~id ~slot:(alloc_slot tn) ~pages:0

(* Every session leaves the table here (close, cutover, import
   rollback): its staged arena entries die in place — [no_request] marks
   a dead entry every flush pass skips, so the arena is never compacted —
   and its state slot goes back on the tenant's free list. *)
let retire_session t (s : session) =
  let tn = s.tenant in
  let st = tn.stage in
  for i = 0 to st.sg_n - 1 do
    if st.sg_reqs.(i).session_id = s.s_id then begin
      st.sg_reqs.(i) <- no_request;
      tn.queued <- tn.queued - 1
    end
  done;
  Hashtbl.remove t.sessions s.s_id;
  Channel.close t.channel ~id:s.s_id;
  tn.free_slots <- s.state_slot :: tn.free_slots

let tenant_sessions t tn =
  Hashtbl.fold
    (fun _ s acc -> if s.tenant == tn then s :: acc else acc)
    t.sessions []

let quoting_urts t =
  match t.qe with
  | Some u -> u
  | None ->
      let u =
        Urts.create ~kmod:t.platform.Platform.kmod ~proc:t.platform.Platform.proc
          ~rng:t.platform.Platform.rng ~signer:t.platform.Platform.signer
          ~config:
            {
              (Urts.default_config Sgx_types.GU) with
              Urts.code_seed = "serve-quoting-enclave";
            }
          ~ecalls:[] ~ocalls:[]
      in
      t.qe <- Some u;
      u

let quoting_identity t = Urts.mrenclave (quoting_urts t)

let node_quote t ~report_data = Urts.gen_quote (quoting_urts t) ~report_data

(* ---------------------------------------------------------------------- *)
(* Handshake                                                              *)

(* The session fault site as a retry thunk: closed, so built once. *)
let cross_session_site () = Fault.point fault_site

let handshake t ~tenant hello =
  let refuse r =
    Telemetry.incr t.telemetry "serve.handshake_rejected";
    reject t r
  in
  match Hashtbl.find_opt t.tenants tenant with
  | None -> reject t (Unknown_tenant tenant)
  | Some { t_migrated_to = Some to_node; _ } ->
      reject t (Tenant_migrated { tenant; to_node })
  | Some tn -> (
      (* Burn the nonce even when the handshake later fails: a challenge
         replayed while its nonce is cached gets no second quote. *)
      if Bytes.length hello.nonce <> nonce_bytes then refuse (Bad_wire "nonce")
      else if nonce_replayed t hello.nonce then refuse Replayed_nonce
      else
        match
          Channel.handshake t.channel ~owner:tn.urts ~id:t.next_session hello
        with
        | exception Fault.Injected { site; kind } ->
            refuse (Session_fault (Fault.message ~site kind))
        | Error f -> refuse (of_sigma f)
        | Ok (server_kx, quote_wire) ->
            let s = open_fresh t tn in
            Telemetry.incr t.telemetry "serve.handshake";
            Telemetry.incr t.telemetry "serve.session_open";
            Ok
              {
                session_id = s.s_id;
                node_id = t.identity.node_id;
                server_kx;
                quote_wire;
                tenant_identity = Urts.mrenclave tn.urts;
              })

(* ---------------------------------------------------------------------- *)
(* Admission                                                              *)

(* Admission looks at the header and the frame's length only; the
   enclave checks tag and freshness ({!Channel.ring}) in the flush. *)
let admit t (req : request) =
  Telemetry.bump t.c_request 1;
  match Hashtbl.find t.sessions req.session_id with
  | exception Not_found -> reject t (session_reject t req.session_id)
  | s -> (
      let tn = s.tenant in
      let len = Bytes.length req.frame - Urts.tag_bytes in
      if len < 0 then reject t Bad_auth
      else if len > slot_bytes then
        reject t
          (Unsupported
             (Printf.sprintf
                "request ciphertext (%d bytes) exceeds the %d-byte ring slot"
                len slot_bytes))
      else
        match Fault.with_retries ~backoff:t.backoff cross_session_site with
        | exception Fault.Injected { site; kind } ->
            reject t (Session_fault (Fault.message ~site kind))
        | () ->
            (* Only the tenant's own handlers are addressable: the reserved
               state ECALLs read and write every session's state slot, and
               an id nobody registered would fail the whole ring shard it
               lands in. *)
            if not (List.mem req.ecall_id tn.handler_ids) then
              reject t
                (Unsupported
                   (Printf.sprintf "ECALL %#x is not a %s handler" req.ecall_id
                      tn.t_name))
            else if tn.queued >= t.config.max_queue then
              reject t
                (Backpressure
                   {
                     tenant = tn.t_name;
                     queued = tn.queued;
                     limit = t.config.max_queue;
                   })
            else if tn.spent >= tn.budget then
              reject t
                (Quota_exhausted
                   { tenant = tn.t_name; spent = tn.spent; quota = tn.budget })
            else begin
              stage_push tn.stage req;
              tn.queued <- tn.queued + 1;
              Telemetry.bump t.c_admitted 1;
              Telemetry.bump tn.c_requests 1;
              Ok ()
            end)

(* The ledger's submit share: every platform cycle admission spends. *)
let submit t req =
  let clock = t.platform.Platform.clock in
  let c0 = Cycles.now clock in
  let r = admit t req in
  t.submit_cyc <- t.submit_cyc + (Cycles.now clock - c0);
  r

(* ---------------------------------------------------------------------- *)
(* Dispatch                                                               *)

let charge (tn : tenant) cycles =
  tn.spent <- tn.spent + cycles;
  Telemetry.bump tn.c_cycles cycles

(* Sort a tenant's stage in place, stably by session id: dispatch and
   reply order is ascending session id, then admission order.  Clients
   stage a burst together, so the stage is nearly sorted and insertion
   sort is linear in practice.  Dead entries (id -1) sort first. *)
let sort_stage (st : stage) =
  let a = st.sg_reqs in
  for i = 1 to st.sg_n - 1 do
    let r = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j).session_id > r.session_id do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- r
  done

let lane_for t (tn : tenant) shard =
  match tn.lanes.(shard) with
  | Some l -> l
  | None ->
      let entries = Array.make t.config.max_queue 0 in
      let ring =
        Urts.create_ring tn.urts
          ~channel:
            (Channel.ring t.channel ~owner:tn.urts ~claim:(fun slot ->
                 tn.stage.sg_reqs.(entries.(slot))))
          ~shard
          ~shards:t.shards ~slots:t.config.max_queue ~slot_bytes
      in
      (* Slots report in [Sched.run], once the lane is in [tn.lanes]. *)
      let on_result ~index:_ ~core:_ = function
        | Ok () -> ()
        | Error msg -> (
            match tn.lanes.(shard) with
            | Some l -> l.err <- Some msg
            | None -> ())
      in
      let job =
        Sched.ring_job t.sched ~core:(shard mod max 1 t.config.sched.Sched.cores)
          ~label:tn.t_name ~on_result
          ~on_slice:(fun ~cycles -> charge tn cycles)
          ring
      in
      let l = { ring; entries; err = None; job } in
      tn.lanes.(shard) <- Some l;
      l

(* Rewind a tenant's stage and rings and clear every ring's failure:
   every staged request has been answered or dropped. *)
let recycle (tn : tenant) =
  let st = tn.stage in
  Array.fill st.sg_reqs 0 st.sg_n no_request;
  st.sg_n <- 0;
  tn.queued <- 0;
  Array.iter
    (function
      | Some l ->
          l.err <- None;
          Urts.ring_reset l.ring
      | None -> ())
    tn.lanes

(* The dispatch path.  Staging, dispatch and reply bytes live in reusable
   arenas and the pinned marshalling rings, and every lane, scheduler
   job, channel, counter handle and retry thunk is built once.  Per
   request a flush allocates the enclave's private copy of the slot body
   (the worker opens it away from the shared segment) and the reply
   record with its list cell, which views the frame in the ring's reply
   image; the rest is per flush.  Every flush ends in [recycle], aborted
   or not, so a ring with staged slots is one this flush staged into. *)
let drain t =
  Telemetry.incr t.telemetry "serve.flush";
  incr t.flushes_begun;
  Channel.new_flush t.channel;
  Hashtbl.reset t.fault_msgs;
  let tenants =
    List.rev_map (fun name -> Hashtbl.find t.tenants name) t.tenant_order
  in
  let flush_total = ref 0 in
  let rings_used = ref 0 in
  (* Pass 1 per tenant: walk the sorted stage.  Each session crosses the
     session fault site at its first entry; a permanent fault there
     surfaces as typed errors in the assembly pass.  Live entries copy
     their whole frame, ciphertext and tag, into a ring slot, for the
     ring's worker to open; each session starts a new rotor block. *)
  List.iter
    (fun tn ->
      let st = tn.stage in
      if st.sg_n > 0 then begin
        sort_stage st;
        let sid = ref (-1) and faulted = ref false in
        let stamp = ref 0 and shard = ref 0 in
        for i = 0 to st.sg_n - 1 do
          let r = st.sg_reqs.(i) in
          if r.session_id >= 0 then begin
            incr flush_total;
            if r.session_id <> !sid then begin
              sid := r.session_id;
              stamp := 0;
              faulted :=
                (match
                   Fault.with_retries ~backoff:t.backoff cross_session_site
                 with
                | () -> false
                | exception Fault.Injected { site; kind } ->
                    Hashtbl.replace t.fault_msgs !sid (Fault.message ~site kind);
                    true)
            end;
            if not !faulted then begin
              let len = Bytes.length r.frame in
              if !stamp mod rotor_block = 0 then begin
                shard := t.rotor;
                t.rotor <- (t.rotor + 1) mod t.shards
              end;
              incr stamp;
              let lane = lane_for t tn !shard in
              let off = Urts.ring_stage lane.ring ~ecall_id:r.ecall_id ~len in
              Bytes.blit r.frame 0 (Urts.ring_buf lane.ring) off len;
              let slot = Urts.ring_staged lane.ring - 1 in
              lane.entries.(slot) <- i;
              st.sg_shards.(i) <- !shard;
              st.sg_slots.(i) <- slot
            end
            else st.sg_shards.(i) <- -1
          end
        done;
        (* Enqueue every shard this tenant staged into: shard [k] pins to
           core [k mod cores], so a single hot tenant's rotor-spread
           blocks occupy every core.  The ring's job publishes, serves
           and reads back on that core. *)
        for shard = 0 to t.shards - 1 do
          match tn.lanes.(shard) with
          | Some l when Urts.ring_staged l.ring > 0 ->
              incr rings_used;
              Sched.submit_job t.sched l.job
          | Some _ | None -> ()
        done
      end)
    tenants;
  Sched.run t.sched;
  (* Assembly: walk the same sorted stages, viewing each sealed reply
     slot where the ring left it, or turning a refused slot into its
     typed reject.  Reply order is the contract: tenant insertion order,
     then session id, then admission order.  The walk runs backwards and
     conses each reply onto the front, so the list needs no reversal. *)
  let out = ref [] in
  let flush = !(t.flushes_begun) in
  let emit sid seq r_result r_image r_off r_len =
    out :=
      {
        r_session_id = sid;
        r_seq = seq;
        r_result;
        r_image;
        r_off;
        r_len;
        r_flushes = t.flushes_begun;
        r_flush = flush;
      }
      :: !out
  in
  let emit_err sid seq rej =
    Telemetry.incr t.telemetry "serve.request.failed";
    Telemetry.incr t.telemetry (reject_counter rej);
    emit sid seq (Error rej) Bytes.empty 0 0
  in
  List.iter
    (fun tn ->
      let st = tn.stage in
      if st.sg_n > 0 then begin
        for i = st.sg_n - 1 downto 0 do
          let { session_id = sid; seq; _ } = st.sg_reqs.(i) in
          let shard = st.sg_shards.(i) in
          if sid < 0 then ()
          else if shard < 0 then
            emit_err sid seq (Session_fault (Hashtbl.find t.fault_msgs sid))
          else
            match tn.lanes.(shard) with
            | None -> assert false
            | Some { err = Some msg; _ } -> emit_err sid seq (Session_fault msg)
            | Some { ring; _ } ->
                let slot = st.sg_slots.(i) in
                let off = Urts.ring_reply_offset ring ~slot in
                let framed = Urts.ring_reply_length ring ~slot in
                let buf = Urts.ring_reply_buf ring in
                if framed >= Urts.tag_bytes then begin
                  Telemetry.bump t.c_ok 1;
                  emit sid seq (Ok ()) buf off framed
                end
                else if framed = Channel.refusal_bytes then
                  emit_err sid seq (Channel.refused buf ~off ~seq)
                else emit_err sid seq (Session_fault "reply slot holds no tag")
        done;
        recycle tn
      end)
    (List.rev tenants);
  (* High-water telemetry: the deepest flush and widest shard spread any
     plane on this platform has reached — the counters outlive a plane
     rebuilt on the same monitor. *)
  Telemetry.raise_to t.telemetry "serve.arena.high_water" !flush_total;
  Telemetry.raise_to t.telemetry "serve.ring.shards_active" !rings_used;
  !out

(* One ledger entry per flush.  Serial: the submit cycles since the last
   flush plus the flush cycles no core slice saw.  The cores run in
   parallel, so the flush's critical path is the serial part plus the
   slowest core's clock advance. *)
let flush t =
  let clock = t.platform.Platform.clock in
  let cores = Array.length t.core_mark in
  let busy () =
    let b = ref 0 in
    for k = 0 to cores - 1 do
      b := !b + Sched.core_busy t.sched k
    done;
    !b
  in
  for k = 0 to cores - 1 do
    t.core_mark.(k) <- Sched.core_cycles t.sched k
  done;
  let p0 = Cycles.now clock and busy0 = busy () in
  let replies =
    match drain t with
    | replies -> replies
    | exception e ->
        (* An aborted flush drops what it staged: nothing may run again in
           the next flush or hold the tenant busy. *)
        let bt = Printexc.get_raw_backtrace () in
        Hashtbl.iter (fun _ tn -> recycle tn) t.tenants;
        Printexc.raise_with_backtrace e bt
  in
  let busy = busy () - busy0 in
  let slowest = ref 0 in
  for k = 0 to cores - 1 do
    slowest := max !slowest (Sched.core_cycles t.sched k - t.core_mark.(k))
  done;
  let serial = t.submit_cyc + (Cycles.now clock - p0) - busy in
  t.submit_cyc <- 0;
  let l = t.ledger in
  t.ledger <-
    {
      flushes = l.flushes + 1;
      served =
        List.fold_left
          (fun n r -> match r.r_result with Ok _ -> n + 1 | Error _ -> n)
          l.served replies;
      serial_cycles = l.serial_cycles + serial;
      busy_cycles = l.busy_cycles + busy;
      slowest_cycles = l.slowest_cycles + !slowest;
      critical_cycles = l.critical_cycles + serial + !slowest;
    };
  replies

let ledger t = t.ledger

(* ---------------------------------------------------------------------- *)
(* Session state, quotas and introspection                                *)

let resize_session t ~session ~pages =
  if pages < 0 || pages > state_stride_pages then
    invalid_arg
      (Printf.sprintf "Serve.resize_session: pages must be in [0, %d]"
         state_stride_pages);
  match Hashtbl.find_opt t.sessions session with
  | None -> reject t (session_reject t session)
  | Some s -> (
      match commit_pages s.tenant ~slot:s.state_slot ~pages with
      | Error rej -> reject t rej
      | Ok committed ->
          s.s_pages <- max s.s_pages pages;
          Ok committed)

let grant t ~tenant cycles =
  match Hashtbl.find_opt t.tenants tenant with
  | None -> invalid_arg (Printf.sprintf "Serve.grant: unknown tenant %s" tenant)
  | Some tn -> if tn.budget <> max_int then tn.budget <- tn.budget + cycles

let quota_state t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | None ->
      invalid_arg (Printf.sprintf "Serve.quota_state: unknown tenant %s" tenant)
  | Some tn -> (tn.spent, tn.budget)

let has_tenant t ~tenant = Hashtbl.mem t.tenants tenant
let session_count t = Hashtbl.length t.sessions

let sched_stats t = Sched.stats t.sched

let close_session t ~session =
  match Hashtbl.find_opt t.sessions session with
  | None -> reject t (session_reject t session)
  | Some s ->
      retire_session t s;
      Telemetry.incr t.telemetry "serve.session_close";
      Ok ()

(* ---------------------------------------------------------------------- *)
(* Live migration: the blob, export / retire / import                     *)

(* A migrating tenant on the wire, every integer a u64 LE and every
   field length-prefixed:
     "hemig2:" [tenant] [identity] [n]
       n x ( [id] [channel record] [pages] [state] )
   Sessions in ascending id order, each with the record the channel
   store writes ({!Channel.export}).  No nonce travels: the replay cache
   is node-local. *)
let blob_magic = "hemig2:"

type moved = {
  m_id : int;
  m_key : Channel.key;
  m_top : int;
  m_pages : int;
  m_state : bytes;
}

exception Malformed of string

(* Every structural fault (short field, negative or oversized count,
   trailing bytes) is [Error what], never an exception. *)
let decode_blob b =
  let pos = ref 0 in
  (* Claim the next [n] bytes and return their offset. *)
  let take n what =
    if n > Bytes.length b - !pos then raise (Malformed what);
    pos := !pos + n;
    !pos - n
  in
  let u64 ?(max = max_int) what =
    let v = get_u64 b (take 8 what) in
    if v < 0 || v > max then raise (Malformed what);
    v
  in
  let field what =
    let n = u64 what in
    Bytes.sub b (take n what) n
  in
  match
    let m = String.length blob_magic in
    if Bytes.sub_string b (take m "magic") m <> blob_magic then
      raise (Malformed "magic");
    let tenant = Bytes.to_string (field "tenant") in
    let identity = field "identity" in
    let moved =
      List.init (u64 ~max:1_000_000 "session count") (fun _ ->
          let m_id = u64 "session id" in
          let m_key, m_top =
            match
              Channel.read_record b ~off:(take Channel.record_bytes "key")
            with
            | Ok r -> r
            | Error what -> raise (Malformed what)
          in
          let m_pages = u64 "pages" in
          let m_state = field "state" in
          { m_id; m_key; m_top; m_pages; m_state })
    in
    if !pos <> Bytes.length b then raise (Malformed "trailing bytes");
    (tenant, identity, moved)
  with
  | x -> Ok x
  | exception Malformed what -> Error ("malformed migration blob: " ^ what)

(* Pull a session's committed EDMM pages into [dst] from [off] through
   the enclave's state-read ECALL, one page per protected call — the
   simulation analogue of EWB-style eviction into the migration blob. *)
let read_state (s : session) dst ~off =
  let base = slot_offset s.tenant s.state_slot in
  let rec go pg =
    if pg = s.s_pages then Ok ()
    else
      match
        state_call s.tenant ~id:state_read_ecall
          (u64s [ base + (pg * Addr.page_size); Addr.page_size ])
      with
      | Error _ as e -> e
      | Ok page ->
          Bytes.blit page 0 dst (off + (pg * Addr.page_size)) Addr.page_size;
          go (pg + 1)
  in
  go 0

(* Replay exported state bytes into [slot]'s region, page-sized
   protected writes. *)
let write_state tn ~slot state =
  let base = slot_offset tn slot in
  let total = Bytes.length state in
  let rec go off =
    if off >= total then Ok ()
    else
      let len = min Addr.page_size (total - off) in
      let data = Bytes.create (8 + len) in
      Bytes.set_int64_le data 0 (Int64.of_int (base + off));
      Bytes.blit state off data 8 len;
      match state_call tn ~id:state_write_ecall data with
      | Error _ as e -> e
      | Ok _ -> go (off + len)
  in
  go 0

let export_tenant t ~tenant =
  rejected t @@
  let* tn =
    match Hashtbl.find_opt t.tenants tenant with
    | None -> Error (Unknown_tenant tenant)
    | Some { t_migrated_to = Some to_node; _ } ->
        Error (Tenant_migrated { tenant; to_node })
    | Some tn when tn.queued > 0 ->
        (* Staged-but-unflushed requests are in-flight work: exporting
           under them would either drop admitted requests or replay
           them on the destination.  The migration driver flushes
           first. *)
        Error (Tenant_busy { tenant; staged = tn.queued })
    | Some tn -> Ok tn
  in
  let sessions =
    List.sort (fun a b -> compare a.s_id b.s_id) (tenant_sessions t tn)
  in
  (* The blob is sized up front and written once, each state page
     copied straight into place. *)
  let prefixed len = 8 + len in
  let size =
    String.length blob_magic
    + prefixed (String.length tenant)
    + prefixed (Bytes.length (Urts.mrenclave tn.urts))
    + List.fold_left
        (fun n s ->
          n + 8 + Channel.record_bytes + 8
          + prefixed (s.s_pages * Addr.page_size))
        8 sessions
  in
  let blob = Bytes.create size and pos = ref 0 in
  let u64 v =
    Bytes.set_int64_le blob !pos (Int64.of_int v);
    pos := !pos + 8
  in
  let string s =
    Bytes.blit_string s 0 blob !pos (String.length s);
    pos := !pos + String.length s
  in
  let field b =
    u64 (Bytes.length b);
    Bytes.blit b 0 blob !pos (Bytes.length b);
    pos := !pos + Bytes.length b
  in
  string blob_magic;
  u64 (String.length tenant);
  string tenant;
  field (Urts.mrenclave tn.urts);
  u64 (List.length sessions);
  let rec pack = function
    | [] -> Ok ()
    | s :: rest ->
        u64 s.s_id;
        Channel.export t.channel ~id:s.s_id blob ~off:!pos;
        pos := !pos + Channel.record_bytes;
        u64 s.s_pages;
        let len = s.s_pages * Addr.page_size in
        u64 len;
        let* () = read_state s blob ~off:!pos in
        pos := !pos + len;
        pack rest
  in
  let* () = pack sessions in
  Telemetry.incr t.telemetry "serve.migrate.export";
  Ok blob

let retire_tenant t ~tenant ~to_node =
  match Hashtbl.find_opt t.tenants tenant with
  | None -> reject t (Unknown_tenant tenant)
  | Some tn when tn.queued > 0 ->
      reject t (Tenant_busy { tenant; staged = tn.queued })
  | Some tn ->
      let sessions = tenant_sessions t tn in
      List.iter
        (fun s ->
          retire_session t s;
          Hashtbl.replace t.migrated s.s_id to_node)
        sessions;
      tn.t_migrated_to <- Some to_node;
      Telemetry.incr t.telemetry "serve.migrate.retire";
      Ok (List.length sessions)

let import_tenant t blob =
  rejected t @@
  let* tenant, identity, moved =
    Result.map_error (fun m -> Import_conflict m) (decode_blob blob)
  in
  let* tn =
    Option.to_result ~none:(Unknown_tenant tenant)
      (Hashtbl.find_opt t.tenants tenant)
  in
  let conflict fmt = Printf.ksprintf (fun m -> Error (Import_conflict m)) fmt in
  (* The destination rebuilt the tenant enclave from the same registry
     config; if it does not measure identically the sealed sessions
     would resume inside a different program.  A live session with the
     same id is a hard conflict; an entry in [migrated] is only a
     forwarding address and clears when the session comes home. *)
  let* () =
    if not (Bytes.equal (Urts.mrenclave tn.urts) identity) then
      conflict "enclave identity does not match the destination's measurement"
    else
      match List.find_opt (fun m -> Hashtbl.mem t.sessions m.m_id) moved with
      | Some m -> conflict "session id %d is live on this node" m.m_id
      | None -> (
          match
            List.find_opt (fun m -> m.m_pages > state_stride_pages) moved
          with
          | Some m ->
              conflict
                "session %d state (%d pages) exceeds this node's %d-page \
                 stride"
                m.m_id m.m_pages state_stride_pages
          | None -> Ok ())
  in
  (* Install one session at a time: re-commit its pages, replay its
     bytes, open it.  Any state failure rolls back what was installed
     so a botched import never leaves half a tenant behind. *)
  let rec install opened = function
    | [] -> Ok ()
    | m :: rest -> (
        let slot = alloc_slot tn in
        let placed =
          let* () =
            if m.m_pages = 0 then Ok ()
            else Result.map ignore (commit_pages tn ~slot ~pages:m.m_pages)
          in
          write_state tn ~slot m.m_state
        in
        match placed with
        | Error _ as e ->
            tn.free_slots <- slot :: tn.free_slots;
            List.iter (retire_session t) opened;
            e
        | Ok () ->
            Channel.open_session t.channel ~owner:tn.urts ~id:m.m_id m.m_key
              ~top:m.m_top;
            let s = open_session t tn ~id:m.m_id ~slot ~pages:m.m_pages in
            install (s :: opened) rest)
  in
  let* () = install [] moved in
  List.iter
    (fun m ->
      Hashtbl.remove t.migrated m.m_id;
      (* A session of this node's own coming home: never issue its id
         again. *)
      resume_session_ids t ~next:(m.m_id + 1))
    moved;
  tn.t_migrated_to <- None;
  Telemetry.incr t.telemetry "serve.migrate.import";
  Ok (List.length moved)

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    (match t.qe with Some u -> Urts.destroy u | None -> ());
    t.qe <- None;
    (* [add_tenant] built every tenant backend, so the plane owns it. *)
    List.iter
      (fun name ->
        match Hashtbl.find_opt t.tenants name with
        | Some tn -> tn.backend.Backend.destroy ()
        | None -> ())
      (List.rev t.tenant_order);
    Hashtbl.reset t.tenants;
    Hashtbl.iter (fun id _ -> Channel.close t.channel ~id) t.sessions;
    Hashtbl.reset t.sessions;
    Hashtbl.reset t.migrated;
    Hashtbl.reset t.seen_nonces;
    Queue.clear t.nonce_order;
    t.tenant_order <- []
  end

(* ---------------------------------------------------------------------- *)
(* Session resumption                                                     *)

let issue_ticket t ~session =
  match Hashtbl.find_opt t.sessions session with
  | None -> reject t (session_reject t session)
  | Some s ->
      let expires =
        Cycles.now t.platform.Platform.clock + t.config.ticket_ttl
      in
      let ticket =
        Channel.issue t.channel ~id:session ~tenant:s.tenant.t_name ~expires
      in
      Telemetry.incr t.telemetry "serve.ticket_issued";
      Ok ticket

let resume t (r : resume) =
  (* Burn the nonce first, success or not: a resumption replayed while
     its nonce is cached opens nothing. *)
  if Bytes.length r.r_nonce <> nonce_bytes then reject t (Bad_wire "nonce")
  else if nonce_replayed t r.r_nonce then reject t Replayed_nonce
  else
    match Channel.redeem t.channel r.r_ticket with
    | Error m -> reject t (Bad_ticket m)
    | Ok (tenant, expires, ticketed) -> (
        if Cycles.now t.platform.Platform.clock > expires then
          reject t Ticket_expired
        else
          match Hashtbl.find_opt t.tenants tenant with
          | None -> reject t (Unknown_tenant tenant)
          | Some { t_migrated_to = Some to_node; _ } ->
              reject t (Tenant_migrated { tenant; to_node })
          | Some tn ->
              let rs_nonce =
                Channel.resume t.channel ~owner:tn.urts ~id:t.next_session
                  ticketed ~nonce:r.r_nonce
              in
              let s = open_fresh t tn in
              Telemetry.incr t.telemetry "serve.resume";
              Telemetry.incr t.telemetry "serve.session_open";
              Ok { rs_session_id = s.s_id; rs_nonce })

module Client = struct
  include Client

  let roundtrip plane t reqs =
    let submitted =
      List.map
        (fun (ecall, data) ->
          let r = request t ~ecall data in
          (r.seq, submit plane r))
        reqs
    in
    let replies = flush plane in
    let mine = session_id t in
    List.map
      (fun (seq, admitted) ->
        match admitted with
        | Error rej -> Error rej
        | Ok () -> (
            match
              List.find_opt
                (fun r -> r.r_session_id = mine && r.r_seq = seq)
                replies
            with
            | None -> Error (Session_fault "no reply for admitted request")
            | Some reply -> read_reply t reply))
      submitted
end
