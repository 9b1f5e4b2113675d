open Hyperenclave_crypto
open Hyperenclave_monitor
module Tpm = Hyperenclave_tpm.Tpm
module Pcr = Hyperenclave_tpm.Pcr

(* A platform half: what the TPM chain, the log replay, the golden
   compare and the hapk binding read of a quote, and nothing else. *)
type platform = {
  p_hapk : Signature.public_key;
  p_tpm_quote : Tpm.quote;
  p_events : Monitor.boot_event list;
}

type golden = {
  ek_public : Signature.public_key;
  boot_measurements : (string * bytes) list;
  mutable accepted : platform option;
      (* the platform half of the last quote that verified *)
}

type policy = {
  expected_mrenclave : bytes option;
  expected_mrsigner : bytes option;
  allow_debug : bool;
}

type failure =
  | Bad_tpm_signature
  | Event_log_mismatch
  | Boot_component_mismatch of string
  | Hapk_not_measured
  | Hapk_mismatch
  | Bad_ems
  | Policy_violation of string
  | Report_data_mismatch

type result = Ok of Sgx_types.report | Error of failure

let pp_failure fmt = function
  | Bad_tpm_signature -> Format.pp_print_string fmt "bad TPM signature chain"
  | Event_log_mismatch -> Format.pp_print_string fmt "event log does not replay to quoted PCRs"
  | Boot_component_mismatch c -> Format.fprintf fmt "boot component %s does not match golden measurement" c
  | Hapk_not_measured -> Format.pp_print_string fmt "hapk not bound to the measured log"
  | Hapk_mismatch ->
      Format.pp_print_string fmt
        "quote signed by a different monitor than the pinned trust anchor"
  | Bad_ems -> Format.pp_print_string fmt "enclave measurement signature invalid"
  | Policy_violation m -> Format.fprintf fmt "enclave policy violation: %s" m
  | Report_data_mismatch ->
      Format.pp_print_string fmt "report_data does not answer this challenge"

let golden_of_measurements ~ek_public boot_measurements =
  { ek_public; boot_measurements; accepted = None }

let golden_of_boot_log ~ek_public events =
  golden_of_measurements ~ek_public
    (List.filter_map
       (fun (e : Monitor.boot_event) ->
         if e.pcr_index = Monitor.pcr_hapk then None
         else Some (e.label, e.measurement))
       events)

let boot_measurements golden = golden.boot_measurements

(* Replay the event log into a scratch PCR bank and compute the digest the
   TPM would have quoted over the standard selection.  An event at any
   other PCR is never replayed, so the TPM vouches for nothing it says:
   such a log is refused outright. *)
let log_replays (q : Monitor.quote) =
  List.for_all
    (fun (e : Monitor.boot_event) ->
      List.mem e.pcr_index Monitor.quote_pcr_selection)
    q.events
  &&
  let bank = Pcr.create () in
  List.iter
    (fun (e : Monitor.boot_event) -> Pcr.extend bank ~index:e.pcr_index e.measurement)
    q.events;
  Sha256.equal
    (Pcr.selection_digest bank ~indices:Monitor.quote_pcr_selection)
    q.tpm_quote.Tpm.pcr_digest

(* The events at hapk's PCR are checked by [hapk_bound]; every other
   event must match its golden measurement. *)
let check_boot_components ~golden (events : Monitor.boot_event list) =
  let rec go = function
    | [] -> None
    | (e : Monitor.boot_event) :: rest ->
        if e.pcr_index = Monitor.pcr_hapk then go rest
        else (
          match List.assoc_opt e.label golden.boot_measurements with
          | Some expected when Sha256.equal expected e.measurement -> go rest
          | Some _ | None -> Some e.label)
  in
  go events

(* hapk speaks for the platform only through the one event at its PCR,
   which the monitor extends at launch. *)
let hapk_bound (q : Monitor.quote) =
  match
    List.filter
      (fun (e : Monitor.boot_event) -> e.pcr_index = Monitor.pcr_hapk)
      q.events
  with
  | [ e ] -> Sha256.equal e.measurement (Sha256.digest_bytes q.hapk)
  | _ -> false

let check_policy ~policy (report : Sgx_types.report) =
  if report.attributes.Sgx_types.debug && not policy.allow_debug then
    Some "debug enclave not allowed"
  else
    match policy.expected_mrenclave with
    | Some expected when not (Sha256.equal expected report.mrenclave) ->
        Some "MRENCLAVE mismatch"
    | Some _ | None -> (
        match policy.expected_mrsigner with
        | Some expected when not (Sha256.equal expected report.mrsigner) ->
            Some "MRSIGNER mismatch"
        | Some _ | None -> None)

(* The expected value is compared with the report's whole field,
   zero-padded as EREPORT pads it. *)
let answers ~report_data (report : Sgx_types.report) =
  Bytes.length report_data <= 64
  && Sha256.equal
       (Sgx_types.pad_report_data report_data)
       report.Sgx_types.report_data

(* The first four checks read only the platform half, so one that
   passed them once passes them again: structural equality with the
   accepted half stands in for them. *)
let remembered golden (q : Monitor.quote) =
  match golden.accepted with
  | Some p ->
      p.p_hapk = q.hapk && p.p_tpm_quote = q.tpm_quote && p.p_events = q.events
  | None -> false

let appraise_platform ~golden (q : Monitor.quote) =
  if not (Tpm.verify_quote q.tpm_quote ~expected_ek:golden.ek_public) then
    Some Bad_tpm_signature
  else if not (log_replays q) then Some Event_log_mismatch
  else
    match check_boot_components ~golden q.events with
    | Some component -> Some (Boot_component_mismatch component)
    | None -> if not (hapk_bound q) then Some Hapk_not_measured else None

let remember golden (q : Monitor.quote) =
  golden.accepted <-
    Some { p_hapk = q.hapk; p_tpm_quote = q.tpm_quote; p_events = q.events }

let appraise_enclave ~policy ?expected_hapk ~report_data (q : Monitor.quote) =
  if
    (* The verifying party's trust anchor: in a fleet every monitor
       has its own measured-boot state and hapk, so a verifier that
       knows which node it is talking to pins that node's key — a
       quote from any *other* honestly-booted monitor must fail. *)
    match expected_hapk with
    | Some pin -> not (Signature.equal_public pin q.hapk)
    | None -> false
  then Error Hapk_mismatch
  else if
    not (Signature.verify q.hapk (Sgx_types.ems_body q.report) ~signature:q.ems)
  then Error Bad_ems
  else
    match check_policy ~policy q.report with
    | Some reason -> Error (Policy_violation reason)
    | None ->
        if not (answers ~report_data q.report) then Error Report_data_mismatch
        else Ok q.report

let verify ~golden ~policy ?expected_hapk ~report_data (q : Monitor.quote) =
  if remembered golden q then
    appraise_enclave ~policy ?expected_hapk ~report_data q
  else
    match appraise_platform ~golden q with
    | Some failure -> Error failure
    | None ->
        let result = appraise_enclave ~policy ?expected_hapk ~report_data q in
        (match result with Ok _ -> remember golden q | Error _ -> ());
        result
