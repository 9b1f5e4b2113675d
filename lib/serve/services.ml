open Hyperenclave_tee
module Libos = Hyperenclave_libos.Libos
module Vfs = Hyperenclave_libos.Vfs
module Resp_kv = Hyperenclave_workloads.Resp_kv
module Kvdb = Hyperenclave_workloads.Kvdb
module Httpd = Hyperenclave_workloads.Httpd
module Ycsb = Hyperenclave_workloads.Ycsb

let ecall_request = 0x5e01
let ecall_admin = 0x5e02

type kind = Resp_kv | Kvdb | Httpd

let kind_name = function
  | Resp_kv -> "resp_kv"
  | Kvdb -> "kvdb"
  | Httpd -> "httpd"

(* --- in-enclave runtime plumbing ----------------------------------------- *)

(* The LibOS instance a service runs on, built lazily from the first
   call's [Backend.env] (the closures underneath are per-enclave, so the
   cached instance stays valid across calls and ring dispatches).  The
   VFS pages against the enclave's demand-paged heap, and all socket
   traffic rides loopback queues — a ring-dispatched handler must not
   OCALL, and with this runtime it never needs to. *)
type instance = {
  os : Libos.t;
  sock : int; (* control: request in, reply out *)
  body_sock : int; (* httpd body streaming, drained in-enclave *)
  epfd : int;
}

let make_instance (env : Backend.env) =
  let os = Libos.create env in
  let sock = Libos.socket ~loopback:true os in
  let body_sock = Libos.socket ~loopback:true os in
  let epfd = Libos.epoll_create os in
  Libos.epoll_add os ~epfd ~fd:sock ~rd:true ~wr:false;
  { os; sock; body_sock; epfd }

let instance_of cell env =
  match !cell with
  | Some i -> i
  | None ->
      let i = make_instance env in
      cell := Some i;
      i

let rec readable sock = function
  | [] -> false
  | (fd, ev) :: rest -> (fd = sock && ev.Libos.rd) || readable sock rest

(* One request through the event loop: deliver the decrypted payload to
   the loopback socket, wait for readiness, recv, dispatch, send the
   reply back, and hand the drained reply bytes to the caller (who seals
   them into the ring slot).  The received bytes are the request's own
   copy and [send] only reads the reply, so neither is copied again on
   the way. *)
let drive (i : instance) ~dispatch input =
  Libos.sock_deliver i.os i.sock input;
  if not (readable i.sock (Libos.epoll_wait i.os ~epfd:i.epfd)) then
    Bytes.of_string "-ERR socket not ready"
  else begin
    let raw = Libos.recv i.os i.sock ~len:(Bytes.length input) in
    let reply = dispatch (Bytes.unsafe_to_string raw) in
    ignore (Libos.send i.os i.sock (Bytes.unsafe_of_string reply));
    Libos.sock_drain i.os i.sock
  end

(* Admin payloads, [load:<records>] and [page:<path>:<bytes>], arrive
   like any request: a client of the tenant's sessions may send one, so
   a malformed payload is answered in-band, never raised. *)
let parse_admin tag raw =
  match String.split_on_char ':' (Bytes.to_string raw) with
  | t :: rest when t = tag -> Some rest
  | _ -> None

let count s =
  match int_of_string_opt s with Some n when n >= 0 -> Some n | _ -> None

let load_records raw =
  match parse_admin "load" raw with Some [ n ] -> count n | _ -> None

let page_args raw =
  match parse_admin "page" raw with
  | Some [ path; bytes ] -> Option.map (fun size -> (path, size)) (count bytes)
  | _ -> None

let bad_admin = "bad admin request"

(* --- resp_kv: RESP commands against a Store, SETs journaled to an AOF --- *)

let aof_path = "/var/lib/resp/appendonly.aof"

let resp_handlers () =
  let store = Resp_kv.Store.create () in
  let cell = ref None in
  let aof = ref (-1) in
  let get_instance env =
    match !cell with
    | Some i -> i
    | None ->
        let i = instance_of cell env in
        aof := Libos.openf i.os ~path:aof_path [ Libos.O_creat; Libos.O_append ];
        i
  in
  let exec_one i env parts =
    let reply = Resp_kv.Store.exec store env parts in
    (match parts with
    | cmd :: _ when String.lowercase_ascii cmd = "set" ->
        (* Journal mutations redis-AOF-style: O_APPEND lands each record
           at the inode's EOF no matter who seeked the fd. *)
        ignore (Libos.write i.os !aof (Resp_kv.encode_command parts))
    | _ -> ());
    reply
  in
  let request env input =
    let i = get_instance env in
    drive i input ~dispatch:(fun raw ->
        match Resp_kv.parse_pipeline raw with
        | Result.Error e -> "-ERR " ^ e
        | Result.Ok commands ->
            String.concat "\r" (List.map (exec_one i env) commands))
  in
  let admin env input =
    let i = get_instance env in
    match load_records input with
    | Some records ->
        for key = 0 to records - 1 do
          ignore
            (exec_one i env
               [ "SET"; Resp_kv.key_name key; Resp_kv.value_for key ])
        done;
        Bytes.of_string (string_of_int (Resp_kv.Store.size store))
    | None -> Bytes.of_string ("-ERR " ^ bad_admin)
  in
  [ (ecall_request, request); (ecall_admin, admin) ]

(* --- kvdb: SQL text against the engine, mutations journaled to a WAL --- *)

let wal_path = "/var/lib/kv/wal"

let kvdb_handlers () =
  let engine = Kvdb.Engine.create () in
  let cell = ref None in
  let wal = ref (-1) in
  let get_instance env =
    match !cell with
    | Some i -> i
    | None ->
        let i = instance_of cell env in
        wal := Libos.openf i.os ~path:wal_path [ Libos.O_creat; Libos.O_append ];
        i
  in
  (* The WAL journals what the engine executed, a row inserted or
     updated, as the statement and a newline built in one buffer. *)
  let exec_sql i env stmt =
    let result = Kvdb.Engine.exec engine stmt in
    Kvdb.charge_engine env engine;
    if Kvdb.Engine.mutated engine then begin
      let n = String.length stmt in
      let line = Bytes.create (n + 1) in
      Bytes.blit_string stmt 0 line 0 n;
      Bytes.set line n '\n';
      ignore (Libos.write i.os !wal line)
    end;
    result
  in
  let request env input =
    let i = get_instance env in
    drive i input ~dispatch:(fun stmt ->
        match exec_sql i env stmt with
        | Result.Ok v -> "+" ^ v
        | Result.Error m -> "-ERR " ^ m)
  in
  let admin env input =
    let i = get_instance env in
    match load_records input with
    | Some records ->
        for key = 0 to records - 1 do
          match
            exec_sql i env
              (Printf.sprintf "INSERT INTO kv VALUES (%d, '%s')" key
                 (Kvdb.value_literal key))
          with
          | Result.Ok _ -> ()
          | Result.Error m -> failwith ("Services.kvdb load: " ^ m)
        done;
        Bytes.of_string (string_of_int records)
    | None -> Bytes.of_string ("-ERR " ^ bad_admin)
  in
  [ (ecall_request, request); (ecall_admin, admin) ]

(* --- httpd: GETs against a file-backed VFS docroot ----------------------- *)

let docroot_prefix = "/srv/www"

let httpd_handlers () =
  let cell = ref None in
  let request env input =
    let i = instance_of cell env in
    drive i input ~dispatch:(fun raw ->
        match Httpd.parse_request raw with
        | Result.Error e -> "HTTP/1.1 400 " ^ e
        | Result.Ok { Httpd.meth; path; headers = _ } ->
            env.Backend.compute
              (Httpd.per_request_cost
              + (Httpd.per_parse_char * String.length raw));
            if meth <> "GET" then "HTTP/1.1 405 method not allowed"
            else
              let full = docroot_prefix ^ path in
              if not (Vfs.exists (Libos.vfs i.os) ~path:full) then
                "HTTP/1.1 404 not found"
              else begin
                let fd = Libos.openf i.os ~path:full [ Libos.O_rdonly ] in
                let size = Libos.fstat_size i.os fd in
                env.Backend.compute (Httpd.body_cost size);
                (* Stream the body through the loopback body socket in
                   write() chunks, draining in-enclave: file pages fault
                   in through the demand-paged heap as they are read. *)
                let sent = ref 0 in
                while !sent < size do
                  let chunk = Libos.read i.os fd ~len:Httpd.chunk_bytes in
                  if Bytes.length chunk = 0 then failwith "Services.httpd: short read"
                  else begin
                    ignore (Libos.send i.os i.body_sock chunk);
                    ignore (Libos.sock_drain i.os i.body_sock);
                    env.Backend.compute Httpd.per_chunk_net;
                    sent := !sent + Bytes.length chunk
                  end
                done;
                Libos.close i.os fd;
                Printf.sprintf "HTTP/1.1 200 OK bytes=%d" size
              end)
  in
  let admin env input =
    let i = instance_of cell env in
    match page_args input with
    | Some (path, size) ->
        let full = docroot_prefix ^ path in
        let fd =
          Libos.openf i.os ~path:full
            [ Libos.O_creat; Libos.O_trunc; Libos.O_wronly ]
        in
        let written = ref 0 in
        while !written < size do
          let chunk = min Httpd.chunk_bytes (size - !written) in
          ignore (Libos.write i.os fd (Ycsb.record_value ~key:!written ~size:chunk));
          written := !written + chunk
        done;
        Libos.close i.os fd;
        Bytes.of_string (string_of_int size)
    | None -> Bytes.of_string ("HTTP/1.1 400 " ^ bad_admin)
  in
  [ (ecall_request, request); (ecall_admin, admin) ]

(* --- registration -------------------------------------------------------- *)

let handlers = function
  | Resp_kv -> resp_handlers ()
  | Kvdb -> kvdb_handlers ()
  | Httpd -> httpd_handlers ()

let backend_config kind =
  {
    (Backend.config (Backend.Hyperenclave Hyperenclave_monitor.Sgx_types.GU)) with
    Backend.handlers = handlers kind;
  }

(* --- client-side request builders ---------------------------------------- *)

let request_of_op kind op =
  match kind with
  | Resp_kv -> Resp_kv.encode_command (Resp_kv.parts_of_op op)
  | Kvdb -> Bytes.of_string (Kvdb.stmt_of_op op)
  | Httpd -> invalid_arg "Services.request_of_op: httpd serves paths, not ops"

let http_request ~path =
  Bytes.of_string (Printf.sprintf "GET %s HTTP/1.1\nhost: svc\n" path)

let load_request ~records = Bytes.of_string (Printf.sprintf "load:%d" records)

let page_request ~path ~bytes =
  Bytes.of_string (Printf.sprintf "page:%s:%d" path bytes)

let reply_ok kind reply =
  let s = Bytes.to_string reply in
  match kind with
  | Resp_kv | Kvdb ->
      String.length s > 0 && s.[0] <> '-'
      && not (String.length s >= 4 && String.sub s 0 4 = "$-1\n")
  | Httpd -> String.length s >= 12 && String.sub s 9 3 = "200"
