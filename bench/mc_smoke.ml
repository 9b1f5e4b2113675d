(* Model-checking coverage gate: `dune build @mc_smoke`.

   Explores the default small-state world to a fixed depth bound and
   fails if (a) any invariant violation / accepted attack / crash is
   found, or (b) the number of distinct canonical states shrinks below
   75% of the committed baseline (MC_BASELINE.json) — a silent guard or
   alphabet regression would otherwise look like a pass with nothing
   explored.  Run with --probe [depth] to measure without gating. *)

module Mc = Hyperenclave.Mc
module Mc_world = Hyperenclave.Mc_world
module Telemetry = Hyperenclave.Telemetry

let gate_fraction = 0.75

let explore ~depth =
  let telemetry = Telemetry.create () in
  let t0 = Unix.gettimeofday () in
  let result = Mc.run ~depth ~telemetry Mc_world.default_config in
  let dt = Unix.gettimeofday () -. t0 in
  (result, dt)

let report (result : Mc.result) dt ~depth =
  Printf.printf "mc_smoke: depth %d: %s\n" depth
    (Format.asprintf "%a" Mc.pp_stats result.Mc.stats);
  Printf.printf "mc_smoke: %.2fs, %.0f states/s\n" dt
    (float_of_int result.Mc.stats.Mc.states /. dt);
  match result.Mc.violation with
  | None -> ()
  | Some v ->
      Printf.printf "mc_smoke: VIOLATION\n%s\n"
        (Format.asprintf "%a" Mc.pp_violation v);
      exit 1

let baseline_field path field =
  match Perf_gate.number (Perf_gate.read path) field with
  | Some v -> int_of_float v
  | None ->
      Printf.eprintf "mc_smoke: %s: missing field %S\n" path field;
      exit 2

(* Triage helper: list every distinct (transition, refusal message) pair
   for LEGAL transitions reachable within the depth bound, with one
   example path each.  Legal refusals are allowed (e.g. a swap-in that
   correctly rejects a poisoned blob) but each kind should be explicable;
   an unexplained one usually means a world guard is out of sync with a
   monitor check. *)
let debug_refusals ~depth =
  let module World = Hyperenclave.Mc_world in
  let module Alphabet = Hyperenclave.Mc_alphabet in
  let w = World.create World.default_config in
  let alphabet = World.alphabet w in
  let visited = Hashtbl.create 4096 in
  let seen = Hashtbl.create 64 in
  let rec explore path d =
    if d < depth then begin
      let ck = World.checkpoint w in
      List.iter
        (fun tr ->
          if World.enabled w tr then begin
            World.push_frame_log w;
            (match World.apply w tr with
            | World.Refused msg when not (Alphabet.is_attack tr) ->
                let key = Alphabet.to_string tr ^ " | " ^ msg in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.replace seen key ();
                  Printf.printf "legal refusal: %s\n  path: %s\n" key
                    (String.concat " -> "
                       (List.rev_map Alphabet.to_string (tr :: path)))
                end
            | World.Crashed msg ->
                Printf.printf "CRASH at %s: %s\n" (Alphabet.to_string tr) msg
            | World.Applied when not (Alphabet.expects_refusal tr) ->
                let key = World.encode w in
                if not (Hashtbl.mem visited key) then begin
                  Hashtbl.replace visited key ();
                  explore (tr :: path) (d + 1)
                end
            | World.Applied | World.Refused _ -> ());
            World.pop_restore_frames w;
            World.rollback w ck
          end)
        alphabet
    end
  in
  explore [] 0;
  Printf.printf "distinct legal refusal kinds: %d\n" (Hashtbl.length seen)

let () =
  match Array.to_list Sys.argv with
  | _ :: "--refusals" :: rest ->
      let depth =
        match rest with d :: _ -> int_of_string d | [] -> 6
      in
      debug_refusals ~depth
  | _ :: "--probe" :: rest ->
      let depth =
        match rest with d :: _ -> int_of_string d | [] -> 6
      in
      let result, dt = explore ~depth in
      report result dt ~depth
  | _ :: baseline :: _ ->
      let depth = baseline_field baseline "depth" in
      let want = baseline_field baseline "states" in
      let result, dt = explore ~depth in
      report result dt ~depth;
      let got = result.Mc.stats.Mc.states in
      let floor_states =
        int_of_float (gate_fraction *. float_of_int want)
      in
      if not result.Mc.stats.Mc.complete then begin
        Printf.printf "mc_smoke: FAIL (exploration hit the state cap)\n";
        exit 1
      end;
      if got < floor_states then begin
        Printf.printf
          "mc_smoke: FAIL (coverage shrank: %d states < 75%% of baseline \
           %d)\n"
          got want;
        exit 1
      end;
      Printf.printf "mc_smoke: PASS (%d states >= %d floor, baseline %d)\n"
        got floor_states want
  | _ ->
      prerr_endline "usage: mc_smoke <MC_BASELINE.json> | --probe [depth]";
      exit 2
