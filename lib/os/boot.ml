open Hyperenclave_hw

type component = { name : string; pcr_index : int; image : bytes }

let default_chain rng =
  let component name pcr_index size =
    (* Derive a stable pseudo-image from the seed stream. *)
    { name; pcr_index; image = Rng.bytes rng size }
  in
  [
    component "crtm" 0 256;
    component "bios" 1 4096;
    component "grub" 2 2048;
    component "kernel" 3 16384;
    component "initramfs" 4 8192;
  ]

let tamper chain ~name =
  if not (List.exists (fun c -> c.name = name) chain) then
    invalid_arg (Printf.sprintf "Boot.tamper: no boot component %S" name);
  List.map
    (fun c ->
      if c.name <> name then c
      else begin
        let image = Bytes.copy c.image in
        Bytes.set image 0
          (Char.chr (Char.code (Bytes.get image 0) lxor 0x01));
        { c with image }
      end)
    chain

let measured_boot tpm chain =
  List.map
    (fun c ->
      let measurement =
        Hyperenclave_tpm.Tpm.extend_measurement tpm ~index:c.pcr_index c.image
      in
      {
        Hyperenclave_monitor.Monitor.pcr_index = c.pcr_index;
        label = c.name;
        measurement;
      })
    chain
