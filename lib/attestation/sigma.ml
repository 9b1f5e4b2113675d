open Hyperenclave_crypto

type failure =
  | Bad_wire of string
  | Unbound
  | Refused of Verifier.failure
  | Unknown_share

let transcript ~label fields =
  let ctx = Sha256.init () in
  Sha256.update_string ctx label;
  let len = Bytes.create 8 in
  List.iter
    (fun field ->
      Bytes.set_int64_le len 0 (Int64.of_int (Bytes.length field));
      Sha256.update ctx len;
      Sha256.update ctx field)
    fields;
  Sha256.finalize ctx

let key ~label secret ~nonce =
  let ctx = Sha256.init () in
  Sha256.update_string ctx label;
  Sha256.update ctx secret;
  Sha256.update ctx nonce;
  Sha256.finalize ctx

let respond rng ~label ~quote fields =
  let secret, share = Kx.generate rng in
  let report_data = transcript ~label (fields share) in
  (secret, share, Wire.encode (quote ~report_data))

let check ~golden ~policy ?expected_hapk ~label fields wire =
  match Wire.decode wire with
  | Error m -> Error (Bad_wire m)
  | Ok quote -> (
      let report_data = transcript ~label fields in
      match Verifier.verify ~golden ~policy ?expected_hapk ~report_data quote with
      | Verifier.Ok report -> Ok report
      | Verifier.Error Verifier.Report_data_mismatch -> Error Unbound
      | Verifier.Error f -> Error (Refused f))

let agree ~label secret share ~nonce =
  match Kx.shared secret share with
  | None -> Error Unknown_share
  | Some shared -> Ok (key ~label shared ~nonce)
