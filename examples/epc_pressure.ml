(* EPC overcommit in action: an enclave whose working set is three times
   the enclave page cache.  RustMonitor seals victim pages out to the
   untrusted disk (EWB-style) and reloads + verifies them on the next
   fault; the operator sees only ciphertext, and a tampered blob is
   refused.  It exits 1 (a [BUG:] line) if a page comes back wrong, no
   swap blob reached the disk, or a blob holds a page's plaintext.

   Run with: dune exec examples/epc_pressure.exe *)

open Hyperenclave

let bug fmt =
  Printf.ksprintf
    (fun m ->
      print_endline ("BUG: " ^ m);
      exit 1)
    fmt

let () =
  (* A deliberately tiny platform: 2 MB of EPC (512 frames). *)
  let p = Platform.create ~seed:71L ~phys_mb:134 ~os_mb:128 ~monitor_mb:4 () in
  let pages = 1500 in
  let handle =
    Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
      ~signer:p.Platform.signer
      ~config:{ (Urts.default_config Sgx_types.GU) with Urts.elrange_pages = 4096 }
      ~ecalls:
        [
          ( 1,
            fun (tenv : Tenv.t) _ ->
              let base = tenv.Tenv.malloc (pages * 4096) in
              for i = 0 to pages - 1 do
                tenv.Tenv.write ~va:(base + (i * 4096))
                  (Bytes.of_string (Printf.sprintf "record %04d" i))
              done;
              (* Re-read everything: early pages were evicted meanwhile. *)
              let intact = ref 0 in
              for i = 0 to pages - 1 do
                if
                  Bytes.to_string (tenv.Tenv.read ~va:(base + (i * 4096)) ~len:11)
                  = Printf.sprintf "record %04d" i
                then incr intact
              done;
              Bytes.of_string (string_of_int !intact) );
        ]
      ~ocalls:[]
  in
  let intact, cycles =
    Cycles.time p.Platform.clock (fun () ->
        Urts.ecall handle ~id:1 ~direction:Edge.Out ())
  in
  Printf.printf
    "working set: %d pages (%.1f MB) against a %d-frame EPC\n" pages
    (float_of_int (pages * 4) /. 1024.0)
    (Epc.nframes (Monitor.epc p.Platform.monitor));
  Printf.printf "pages intact after the storm: %s / %d\n"
    (Bytes.to_string intact) pages;
  if int_of_string (Bytes.to_string intact) < pages then
    bug "only %s of %d pages came back intact" (Bytes.to_string intact) pages;
  Printf.printf "monitor evictions (EWB analogue): %d, %d cycles end-to-end\n"
    (Monitor.epc_swap_count p.Platform.monitor)
    cycles;
  (* What the operator actually possesses: sealed blobs. *)
  let enclave = Urts.enclave handle in
  let base_vpn = 0x1_0000_0000 / 4096 in
  let blobs =
    List.filter_map
      (fun vpn ->
        Kernel.disk_load p.Platform.kernel
          ~key:(Printf.sprintf "heswap:%d:%x" enclave.Enclave.id vpn))
      (List.init 4096 (fun i -> base_vpn + i))
  in
  let plaintext_free blob =
    let s = Bytes.to_string blob in
    let rec go i =
      if i + 6 > String.length s then true
      else if String.sub s i 6 = "record" then false
      else go (i + 1)
    in
    go 0
  in
  (match blobs with
  | [] -> bug "no swap blob reached the disk"
  | blob :: _ ->
      let sealed = List.for_all plaintext_free blobs in
      Printf.printf
        "%d swapped pages on the untrusted disk, each %d bytes of \
         ciphertext (no plaintext 'record' marker inside: %b)\n"
        (List.length blobs) (Bytes.length blob) sealed;
      if not sealed then bug "a swap blob holds a page's plaintext");
  Urts.destroy handle;
  print_endline "epc_pressure done."
