(* A "legacy" POSIX application running unmodified inside the enclave on
   the library OS (the Occlum port of Sec. 3.4/5.3): a log analyzer that
   writes files, reads them back, and ships a summary over a socket.

   The takeaway printed at the end is the libOS value proposition: dozens
   of syscalls, of which only the socket I/O ever leaves the enclave.

   Run with: dune exec examples/libos_app.exe *)

open Hyperenclave

let analyzer (env : Backend.env) _input =
  let os = Libos.create env in
  (* Write the application's config and a day of "logs". *)
  let conf = Libos.openf os ~path:"/etc/analyzer.conf" [ Libos.O_creat; Libos.O_rdwr ] in
  ignore (Libos.write os conf (Bytes.of_string "threshold=3\npattern=ERROR\n"));
  Libos.close os conf;
  let log = Libos.openf os ~path:"/var/log/app.log" [ Libos.O_creat; Libos.O_rdwr ] in
  for hour = 0 to 23 do
    let line =
      Printf.sprintf "%02d:00 %s request served\n" hour
        (if hour mod 7 = 3 then "ERROR" else "INFO")
    in
    ignore (Libos.write os log (Bytes.of_string line))
  done;
  Libos.close os log;
  (* Re-open and scan for the configured pattern. *)
  let log = Libos.openf os ~path:"/var/log/app.log" [ Libos.O_rdonly ] in
  let contents = Bytes.to_string (Libos.read os log ~len:8192) in
  Libos.close os log;
  let errors =
    List.length
      (List.filter
         (fun line ->
           String.length line > 0
           && Option.is_some
                (String.index_opt line 'E')
           && String.length line >= 11
           && String.sub line 6 5 = "ERROR")
         (String.split_on_char '\n' contents))
  in
  env.Backend.compute (String.length contents * 4);
  (* Ship the report: the only syscalls that genuinely exit. *)
  let sock = Libos.socket os in
  let report = Printf.sprintf "daily-report errors=%d files=%d" errors 2 in
  ignore (Libos.send os sock (Bytes.of_string report));
  let stats = Libos.stats os in
  Bytes.of_string
    (Printf.sprintf "%d:%d:%d" errors stats.Libos.in_enclave
       stats.Libos.forwarded)

let run_on mode =
  let p = Platform.create ~seed:61L () in
  let backend =
    Backend.create p
      {
        (Backend.config (Backend.Hyperenclave mode)) with
        Backend.handlers = [ (1, analyzer) ];
        ocalls =
          [
            ( Libos.net_send_ocall,
              fun data -> Bytes.of_string (string_of_int (Bytes.length data)) );
          ];
      }
  in
  let reply, cycles =
    Cycles.time p.Platform.clock (fun () ->
        backend.Backend.call ~id:1 ~direction:Edge.Out ())
  in
  backend.Backend.destroy ();
  match String.split_on_char ':' (Bytes.to_string reply) with
  | [ errors; inside; forwarded ] ->
      Printf.printf
        "%-11s: %s ERROR lines found; %s syscalls served in-enclave, %s \
         forwarded to the host; %d cycles end-to-end\n"
        (Sgx_types.mode_name mode) errors inside forwarded cycles
  | _ -> failwith "unexpected reply"

let () =
  List.iter run_on [ Sgx_types.GU; Sgx_types.HU ];
  print_endline
    "Every file/time/pid syscall stayed inside the enclave (zero world\n\
     switches); only the socket send crossed — which is why I/O-heavy\n\
     legacy applications are ported via a libOS (Sec. 3.4).";
  print_endline "libos_app done."
