(* The library OS: POSIX-ish semantics in-enclave, network forwarding,
   and the in-enclave/forwarded syscall accounting that makes the Occlum
   approach pay off. *)

open Hyperenclave

(* The host's side of the forwarding sockets: a send takes every byte, a
   recv returns the bytes asked for, all 'r'. *)
let host_ocalls =
  [
    ( Libos.net_send_ocall,
      fun data -> Bytes.of_string (string_of_int (Bytes.length data)) );
    ( Libos.net_recv_ocall,
      fun len -> Bytes.make (int_of_string (Bytes.to_string len)) 'r' );
  ]

(* Run [body] inside one ECALL of a [kind] backend on a fresh platform. *)
let in_enclave ?(kind = Backend.Hyperenclave Sgx_types.GU) ~seed body =
  let p = Platform.create ~seed () in
  let result = ref None in
  let backend =
    Backend.create p
      {
        (Backend.config kind) with
        Backend.handlers =
          [
            ( 1,
              fun env _ ->
                result := Some (body env);
                Bytes.empty );
          ];
        ocalls = host_ocalls;
      }
  in
  ignore (backend.Backend.call ~id:1 ~direction:Edge.In ());
  backend.Backend.destroy ();
  Option.get !result

let with_libos body = in_enclave ~seed:7000L (fun env -> body (Libos.create env))

let file_lifecycle os =
  let fd = Libos.openf os ~path:"/data/log.txt" [ Libos.O_creat; Libos.O_rdwr ] in
  Alcotest.(check int) "first write" 5 (Libos.write os fd (Bytes.of_string "hello"));
  Alcotest.(check int) "append-style write" 7 (Libos.write os fd (Bytes.of_string " libos!"));
  ignore (Libos.lseek os fd ~pos:0);
  Alcotest.(check string)
    "read back" "hello libos!"
    (Bytes.to_string (Libos.read os fd ~len:100));
  Alcotest.(check string)
    "read at EOF is empty" ""
    (Bytes.to_string (Libos.read os fd ~len:10));
  ignore (Libos.lseek os fd ~pos:6);
  Alcotest.(check string)
    "seek + partial read" "libos"
    (Bytes.to_string (Libos.read os fd ~len:5));
  Alcotest.(check int) "stat" 12 (Libos.stat_size os ~path:"/data/log.txt");
  Libos.close os fd;
  Alcotest.(check int) "fd table drained" 0 (Libos.open_fds os);
  (* O_TRUNC resets; O_APPEND writes at the end regardless of seeks. *)
  let fd2 = Libos.openf os ~path:"/data/log.txt" [ Libos.O_trunc; Libos.O_append ] in
  ignore (Libos.write os fd2 (Bytes.of_string "a"));
  ignore (Libos.lseek os fd2 ~pos:0);
  ignore (Libos.write os fd2 (Bytes.of_string "b"));
  Alcotest.(check int) "append semantics" 2 (Libos.stat_size os ~path:"/data/log.txt");
  Libos.close os fd2;
  Libos.unlink os ~path:"/data/log.txt";
  try
    ignore (Libos.stat_size os ~path:"/data/log.txt");
    Alcotest.fail "stat after unlink"
  with Libos.No_such_file _ -> ()

let test_file_lifecycle () = with_libos file_lifecycle

(* One application, unchanged, on every backend: the same file bytes
   come back and the same syscalls stay in or leave, whether the files
   live in demand-paged EPC or in a scratch heap. *)
let test_every_backend () =
  List.iter
    (fun kind ->
      let name = Backend.kind_name kind in
      let stats =
        in_enclave ~kind ~seed:7003L (fun env ->
            let os = Libos.create env in
            file_lifecycle os;
            Alcotest.(check int) (name ^ ": forwarded send") 6
              (Libos.send os (Libos.socket os) (Bytes.of_string "report"));
            Libos.stats os)
      in
      Alcotest.(check (pair int int))
        (name ^ ": in-enclave/forwarded split")
        (20, 1)
        (stats.Libos.in_enclave, stats.Libos.forwarded))
    [
      Backend.Native;
      Backend.Sgx;
      Backend.Hyperenclave Sgx_types.HU;
      Backend.Hyperenclave Sgx_types.GU;
    ]

let test_errors () =
  with_libos (fun os ->
      (try
         ignore (Libos.openf os ~path:"/missing" [ Libos.O_rdonly ]);
         Alcotest.fail "open without O_CREAT"
       with Libos.No_such_file _ -> ());
      (try
         ignore (Libos.read os 42 ~len:1);
         Alcotest.fail "bad fd"
       with Libos.Bad_fd 42 -> ());
      let s = Libos.socket os in
      (try
         ignore (Libos.read os s ~len:1);
         Alcotest.fail "file read on socket"
       with Libos.Bad_fd _ -> ());
      true)
  |> Alcotest.(check bool) "completed" true

let test_directory_listing () =
  with_libos (fun os ->
      List.iter
        (fun path -> Libos.close os (Libos.openf os ~path [ Libos.O_creat ]))
        [ "/etc/app.conf"; "/etc/keys.pem"; "/var/run.pid" ];
      Libos.list_dir os ~prefix:"/etc/")
  |> Alcotest.(check (list string)) "prefix listing" [ "/etc/app.conf"; "/etc/keys.pem" ]

let test_network_forwarding_and_stats () =
  let stats =
    with_libos (fun os ->
        let pid = Libos.getpid os in
        Alcotest.(check int) "pid" 1 pid;
        Alcotest.(check bool) "clock ticks" true (Libos.clock_monotonic os > 0);
        let fd = Libos.openf os ~path:"/tmp/x" [ Libos.O_creat; Libos.O_rdwr ] in
        for _ = 1 to 10 do
          ignore (Libos.write os fd (Bytes.of_string "block"))
        done;
        Libos.close os fd;
        let s = Libos.socket os in
        Alcotest.(check int) "send returns count" 4 (Libos.send os s (Bytes.of_string "ping"));
        Alcotest.(check string)
          "recv payload" "rrr"
          (Bytes.to_string (Libos.recv os s ~len:3));
        Libos.stats os)
  in
  (* 10 writes + open/close + socket + send + recv + pid + clock + ... all
     dispatched in-enclave; only the two socket ops actually left. *)
  Alcotest.(check int) "only network forwarded" 2 stats.Libos.forwarded;
  Alcotest.(check bool)
    (Printf.sprintf "most syscalls stayed inside (%d)" stats.Libos.in_enclave)
    true
    (stats.Libos.in_enclave > 15)

let test_exitless_is_cheaper () =
  (* The same file work costs far less than the equivalent number of
     world switches would. *)
  let cycles =
    in_enclave ~seed:7001L (fun env ->
        let os = Libos.create env in
        let fd = Libos.openf os ~path:"/f" [ Libos.O_creat; Libos.O_rdwr ] in
        snd
          (Cycles.time env.Backend.clock (fun () ->
               for _ = 1 to 100 do
                 ignore (Libos.write os fd (Bytes.of_string "x"))
               done)))
  in
  let ocall_equivalent = 100 * 4920 in
  Alcotest.(check bool)
    (Printf.sprintf "100 in-enclave writes (%d cyc) << 100 OCALLs (%d cyc)"
       cycles ocall_equivalent)
    true
    (cycles * 5 < ocall_equivalent)

(* --- PR 9 additions ------------------------------------------------------ *)

let test_typed_seek () =
  with_libos (fun os ->
      let fd = Libos.openf os ~path:"/seek" [ Libos.O_creat; Libos.O_rdwr ] in
      ignore (Libos.write os fd (Bytes.of_string "abcdef"));
      ignore (Libos.lseek os fd ~pos:2);
      (* Negative and overflowing positions are typed rejections, and a
         failed seek must leave the cursor where it was. *)
      (try
         ignore (Libos.lseek os fd ~pos:(-1));
         Alcotest.fail "negative seek accepted"
       with Libos.Bad_seek -1 -> ());
      (try
         ignore (Libos.lseek os fd ~pos:(Libos.max_file_bytes + 1));
         Alcotest.fail "overflowing seek accepted"
       with Libos.Bad_seek _ -> ());
      Alcotest.(check string)
        "position survived the failed seeks" "cd"
        (Bytes.to_string (Libos.read os fd ~len:2));
      (* The boundary itself is legal (sparse files). *)
      Alcotest.(check int) "seek to the limit" Libos.max_file_bytes
        (Libos.lseek os fd ~pos:Libos.max_file_bytes);
      (* Only files seek. *)
      let s = Libos.socket ~loopback:true os in
      (try
         ignore (Libos.lseek os s ~pos:0);
         Alcotest.fail "socket seeked"
       with Libos.Bad_fd _ -> ());
      let ep = Libos.epoll_create os in
      (try
         ignore (Libos.lseek os ep ~pos:0);
         Alcotest.fail "epoll fd seeked"
       with Libos.Bad_fd _ -> ());
      true)
  |> Alcotest.(check bool) "completed" true

let test_unlink_staleness () =
  with_libos (fun os ->
      let fd = Libos.openf os ~path:"/stale" [ Libos.O_creat; Libos.O_rdwr ] in
      ignore (Libos.write os fd (Bytes.of_string "orphan data"));
      Libos.unlink os ~path:"/stale";
      (* POSIX: the open fd keeps the inode alive and fully usable... *)
      Alcotest.(check int) "fstat through the orphan fd" 11 (Libos.fstat_size os fd);
      ignore (Libos.lseek os fd ~pos:0);
      Alcotest.(check string)
        "orphan still readable" "orphan data"
        (Bytes.to_string (Libos.read os fd ~len:64));
      Alcotest.(check int) "orphan still writable" 5
        (Libos.write os fd (Bytes.of_string " more"));
      Alcotest.(check int) "orphan grew" 16 (Libos.fstat_size os fd);
      (* ...while the path is gone... *)
      (try
         ignore (Libos.stat_size os ~path:"/stale");
         Alcotest.fail "unlinked path stats"
       with Libos.No_such_file _ -> ());
      (* ...and recreating the path mints a fresh inode — no resurrection. *)
      let fd2 = Libos.openf os ~path:"/stale" [ Libos.O_creat; Libos.O_rdwr ] in
      Alcotest.(check int) "fresh inode is empty" 0 (Libos.fstat_size os fd2);
      ignore (Libos.write os fd2 (Bytes.of_string "new"));
      Alcotest.(check int) "orphan untouched by the new file" 16
        (Libos.fstat_size os fd);
      (* Short reads past EOF: never an exception, possibly short/empty. *)
      ignore (Libos.lseek os fd2 ~pos:1);
      Alcotest.(check string)
        "short read at the tail" "ew"
        (Bytes.to_string (Libos.read os fd2 ~len:100));
      ignore (Libos.lseek os fd2 ~pos:50);
      Alcotest.(check string)
        "read past EOF is empty" ""
        (Bytes.to_string (Libos.read os fd2 ~len:10));
      Libos.close os fd;
      Libos.close os fd2;
      true)
  |> Alcotest.(check bool) "completed" true

let test_epoll_readiness () =
  with_libos (fun os ->
      let ep = Libos.epoll_create os in
      let fd = Libos.openf os ~path:"/ev" [ Libos.O_creat; Libos.O_rdwr ] in
      let s = Libos.socket ~loopback:true os in
      Libos.epoll_add os ~epfd:ep ~fd ~rd:true ~wr:false;
      Libos.epoll_add os ~epfd:ep ~fd:s ~rd:true ~wr:true;
      (* Empty file at pos 0, empty socket queue: only the socket's write
         side is ready. *)
      Alcotest.(check (list (pair int bool)))
        "initially only sock-writable"
        [ (s, false) ]
        (List.map (fun (f, e) -> (f, e.Libos.rd)) (Libos.epoll_wait os ~epfd:ep));
      (* Data behind the file cursor and bytes in the socket queue flip
         both readable (level-triggered). *)
      ignore (Libos.write os fd (Bytes.of_string "data"));
      ignore (Libos.lseek os fd ~pos:0);
      Libos.sock_deliver os s (Bytes.of_string "ping");
      let ready () =
        List.filter_map
          (fun (f, e) -> if e.Libos.rd then Some f else None)
          (Libos.epoll_wait os ~epfd:ep)
      in
      Alcotest.(check (list int)) "both readable, sorted" [ fd; s ] (ready ());
      Alcotest.(check (list int)) "level-triggered: still readable" [ fd; s ]
        (ready ());
      (* Draining deasserts. *)
      ignore (Libos.read os fd ~len:10);
      ignore (Libos.recv os s ~len:10);
      Alcotest.(check (list int)) "drained fds not readable" [] (ready ());
      (* Deregistration and close both forget the fd. *)
      Libos.sock_deliver os s (Bytes.of_string "x");
      Libos.epoll_del os ~epfd:ep ~fd:s;
      Alcotest.(check (list int)) "epoll_del removes interest" [] (ready ());
      Libos.epoll_add os ~epfd:ep ~fd:s ~rd:true ~wr:false;
      Alcotest.(check (list int)) "re-added and pending" [ s ] (ready ());
      Libos.close os s;
      Alcotest.(check (list int)) "close forgets the fd" [] (ready ());
      (* No nested epoll. *)
      (try
         Libos.epoll_add os ~epfd:ep ~fd:(Libos.epoll_create os) ~rd:true
           ~wr:false;
         Alcotest.fail "nested epoll accepted"
       with Libos.Bad_fd _ -> ());
      true)
  |> Alcotest.(check bool) "completed" true

let test_loopback_sockets () =
  let stats =
    with_libos (fun os ->
        let s = Libos.socket ~loopback:true os in
        (* Empty queue: recv would-block as an empty read. *)
        Alcotest.(check string)
          "empty queue would-block" ""
          (Bytes.to_string (Libos.recv os s ~len:8));
        Libos.sock_deliver os s (Bytes.of_string "hello wo");
        Libos.sock_deliver os s (Bytes.of_string "rld");
        Alcotest.(check string)
          "short read from the queue" "hello"
          (Bytes.to_string (Libos.recv os s ~len:5));
        Alcotest.(check string)
          "cursor advances across deliveries" " world"
          (Bytes.to_string (Libos.recv os s ~len:64));
        ignore (Libos.send os s (Bytes.of_string "re"));
        ignore (Libos.send os s (Bytes.of_string "ply"));
        Alcotest.(check string)
          "drain accumulates sends" "reply"
          (Bytes.to_string (Libos.sock_drain os s));
        Alcotest.(check string)
          "drain empties the out queue" ""
          (Bytes.to_string (Libos.sock_drain os s));
        (* Plane-side injection only works on loopback fds. *)
        let fwd = Libos.socket os in
        (try
           Libos.sock_deliver os fwd (Bytes.of_string "x");
           Alcotest.fail "delivered to a forwarding socket"
         with Libos.Bad_fd _ -> ());
        Libos.stats os)
  in
  Alcotest.(check int) "loopback I/O never leaves the enclave" 0
    stats.Libos.forwarded

let test_paged_vfs () =
  (* File extents live in the demand-paged enclave heap: a multi-page
     file round-trips through the env's heap reads/writes (EPC commit
     under the hood) and the VFS bump allocator reports the extent
     bytes. *)
  in_enclave ~seed:7002L (fun env ->
      let os = Libos.create env in
      let fd = Libos.openf os ~path:"/big" [ Libos.O_creat; Libos.O_rdwr ] in
      let chunk = Bytes.make 4096 'p' in
      for page = 0 to 2 do
        Bytes.set chunk 0 (Char.chr (Char.code 'a' + page));
        ignore (Libos.write os fd chunk)
      done;
      Alcotest.(check int) "three pages" 12288 (Libos.fstat_size os fd);
      ignore (Libos.lseek os fd ~pos:8192);
      let back = Libos.read os fd ~len:4096 in
      Alcotest.(check char) "page marker survives paging" 'c' (Bytes.get back 0);
      Alcotest.(check char) "page body survives paging" 'p' (Bytes.get back 4095);
      ignore (Libos.lseek os fd ~pos:4000);
      Alcotest.(check int)
        "cross-page read" 2000
        (Bytes.length (Libos.read os fd ~len:2000));
      Alcotest.(check bool) "extents came from the heap" true
        (Vfs.paged_bytes (Libos.vfs os) >= 12288))

let suite =
  [
    Alcotest.test_case "file lifecycle" `Quick test_file_lifecycle;
    Alcotest.test_case "typed seek errors" `Quick test_typed_seek;
    Alcotest.test_case "unlink staleness (POSIX fds)" `Quick
      test_unlink_staleness;
    Alcotest.test_case "epoll readiness" `Quick test_epoll_readiness;
    Alcotest.test_case "loopback sockets" `Quick test_loopback_sockets;
    Alcotest.test_case "file-backed VFS pages the heap" `Quick test_paged_vfs;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "directory listing" `Quick test_directory_listing;
    Alcotest.test_case "network forwarding + stats" `Quick
      test_network_forwarding_and_stats;
    Alcotest.test_case "exitless file I/O is cheap" `Quick test_exitless_is_cheaper;
    Alcotest.test_case "one application on every backend" `Quick
      test_every_backend;
  ]
