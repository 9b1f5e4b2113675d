(* The model checker checked: exhaustive small-depth exploration stays
   green and deterministic, a deliberately seeded monitor bug is found
   and minimized to a replayable two-step trace, the trace minimizer is
   1-minimal on a known example, and random well-formed transition
   sequences (the QCheck face of the same alphabet) never crash the
   monitor or leave the invariant audit non-empty. *)

open Hyperenclave
module World = Mc_world
module Alphabet = Mc_alphabet
module Trace = Mc_trace

(* --- exhaustive exploration -------------------------------------------- *)

(* Depth 6 explores in ~150ms; the full committed depth lives in the
   @mc_smoke gate, not here, so `dune exec test/test_main.exe` stays
   fast. *)
let explore_depth = 6

let test_exhaustive () =
  let result = Mc.run ~depth:explore_depth World.default_config in
  (match result.Mc.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "violation in the default world:@.%a" Mc.pp_violation v);
  let s = result.Mc.stats in
  Alcotest.(check bool) "complete" true s.Mc.complete;
  Alcotest.(check bool)
    (Printf.sprintf "explores a real state space (%d states)" s.Mc.states)
    true (s.Mc.states >= 500);
  Alcotest.(check int)
    "every refusal comes from an attack transition" s.Mc.refusals
    s.Mc.attacks_refused;
  Alcotest.(check bool)
    (Printf.sprintf "attacks were actually thrown at the monitor (%d)"
       s.Mc.attacks_refused)
    true
    (s.Mc.attacks_refused >= 100);
  Alcotest.(check int) "reaches the depth bound" explore_depth s.Mc.max_depth

let test_deterministic () =
  let stats () =
    let r = Mc.run ~depth:5 World.default_config in
    let s = r.Mc.stats in
    ((s.Mc.states, s.Mc.transitions), (s.Mc.dedup_hits, s.Mc.refusals))
  in
  let a = stats () and b = stats () in
  Alcotest.(check (pair (pair int int) (pair int int))) "two runs agree" a b

let test_state_cap () =
  let result = Mc.run ~depth:explore_depth ~max_states:50 World.default_config in
  Alcotest.(check bool) "cap reported" false result.Mc.stats.Mc.complete;
  Alcotest.(check int) "cap respected" 50 result.Mc.stats.Mc.states

let test_telemetry () =
  let tel = Telemetry.create () in
  let result = Mc.run ~depth:4 ~telemetry:tel World.default_config in
  Alcotest.(check int)
    "states counter" result.Mc.stats.Mc.states
    (Telemetry.counter tel "mc.states");
  Alcotest.(check int)
    "transitions counter" result.Mc.stats.Mc.transitions
    (Telemetry.counter tel "mc.transitions");
  Alcotest.(check int)
    "max depth high-water mark" result.Mc.stats.Mc.max_depth
    (Telemetry.counter tel "mc.max_depth")

(* --- the seeded bug is found, minimized, and replays -------------------- *)

let test_seeded_bug () =
  let cfg = { World.default_config with World.seed_bug = true } in
  let result = Mc.run ~depth:4 cfg in
  match result.Mc.violation with
  | None -> Alcotest.fail "seeded Sabotage transition was never caught"
  | Some v ->
      (match v.Mc.kind with
      | Mc.Oracle_failed msg ->
          Alcotest.(check bool)
            (Printf.sprintf "audit names the monitor frame leak: %s" msg)
            true
            (String.length msg > 0)
      | Mc.Attack_accepted | Mc.Crash _ ->
          Alcotest.failf "wrong violation kind:@.%a" Mc.pp_violation v);
      (* Sabotage needs slot 0 to exist, so 1-minimal is exactly
         [ecreate[0]; sabotage]. *)
      Alcotest.(check (list string))
        "minimized to the two-step counterexample"
        [ "ecreate[0]"; "sabotage" ]
        (List.map Alphabet.to_string v.Mc.trace);
      (* The printed trace replays: parse it back from its canonical
         names and run it against a fresh world. *)
      let reparsed =
        List.map
          (fun tr ->
            match Alphabet.of_string (Alphabet.to_string tr) with
            | Some tr' -> tr'
            | None ->
                Alcotest.failf "unparseable transition %S"
                  (Alphabet.to_string tr))
          v.Mc.trace
      in
      (match Mc.replay cfg reparsed with
      | Some (Mc.Oracle_failed _) -> ()
      | other ->
          Alcotest.failf "reparsed trace does not reproduce (%s)"
            (match other with
            | None -> "no violation"
            | Some (Mc.Attack_accepted) -> "attack_accepted"
            | Some (Mc.Crash m) -> "crash: " ^ m
            | Some (Mc.Oracle_failed _) -> assert false));
      (* And it is really 1-minimal: every strict sub-trace is clean. *)
      List.iteri
        (fun i _ ->
          let sub = List.filteri (fun j _ -> j <> i) v.Mc.trace in
          match Mc.replay cfg sub with
          | None -> ()
          | Some _ ->
              Alcotest.failf "dropping step %d still fails — not minimal" i)
        v.Mc.trace

let test_bug_free_world_ignores_sabotage () =
  (* Without [seed_bug] the Sabotage transition is absent from the
     alphabet entirely. *)
  let w = World.create World.default_config in
  Alcotest.(check bool)
    "sabotage not in the default alphabet" false
    (List.mem Alphabet.Sabotage (World.alphabet w))

(* --- the minimizer on a known example ----------------------------------- *)

let test_minimize () =
  (* Failure = the trace contains both "b" and "d"; everything else is
     noise the minimizer must strip. *)
  let replay cand = List.mem "b" cand && List.mem "d" cand in
  Alcotest.(check (list string))
    "strips all noise" [ "b"; "d" ]
    (Trace.minimize ~replay [ "a"; "b"; "c"; "d"; "e" ]);
  Alcotest.(check (list string))
    "already minimal" [ "b"; "d" ]
    (Trace.minimize ~replay [ "b"; "d" ]);
  Alcotest.(check (list string))
    "non-failing input returned unchanged" [ "a"; "c" ]
    (Trace.minimize ~replay [ "a"; "c" ])

let test_trace_pp () =
  let steps =
    [ Trace.step "ecreate[0]"; Trace.step ~detail:"refused: x" "eadd[1]" ]
  in
  let s = Trace.to_string steps in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "step 1 printed" true (contains s "1. ecreate[0]");
  Alcotest.(check bool) "detail printed" true (contains s "refused: x")

(* --- QCheck: random well-formed sequences ------------------------------- *)

(* A sequence is generated as abstract choice indices; each index picks
   among the transitions *enabled in the state actually reached*, so
   every generated sequence is well-formed by construction and shrinking
   stays meaningful (a prefix of choices is still a valid run). *)
let walk (salt, choices) =
  let w = World.create World.default_config in
  let taken = ref [] in
  let fail_with msg =
    let steps =
      Mc.to_trace (List.rev !taken) @ [ Mc_trace.step ~detail:msg "FAILED" ]
    in
    QCheck.Test.fail_reportf "%s@.trace:@.%s" msg (Trace.to_string steps)
  in
  List.iteri
    (fun i choice ->
      let enabled = List.filter (World.enabled w) (World.alphabet w) in
      match enabled with
      | [] -> fail_with "no transition enabled — world wedged"
      | _ ->
          let tr =
            List.nth enabled ((choice + (salt * i)) mod List.length enabled)
          in
          taken := tr :: !taken;
          (match World.apply w tr with
          | World.Crashed msg ->
              fail_with
                (Printf.sprintf "untyped crash on %s: %s"
                   (Alphabet.to_string tr) msg)
          | World.Applied when Alphabet.expects_refusal tr ->
              fail_with
                (Printf.sprintf "attack %s applied without refusal"
                   (Alphabet.to_string tr))
          | World.Applied | World.Refused _ -> ());
          (match World.oracle w with
          | [] -> ()
          | findings ->
              fail_with
                (Printf.sprintf "oracle after %s: %s" (Alphabet.to_string tr)
                   (String.concat "; " findings))))
    choices;
  true

let qcheck_random_walks =
  QCheck.Test.make ~name:"random well-formed walks stay green" ~count:60
    QCheck.(
      pair (int_bound 1_000_000)
        (list_of_size (QCheck.Gen.int_range 1 25) (int_bound 10_000)))
    walk

(* A walk that once failed on a correct monitor: a swap splice
   overwrites a stored blob, and the replay attack then "rolled back" to
   the only archived blob for that key — the monitor's latest
   write-back, which the monitor rightly accepts on touch.  The replay
   attack must only ever restore an older blob. *)
let test_splice_then_replay_walk () =
  let input =
    ( 612939,
      [ 63; 0; 15; 6; 15; 7; 18; 2817; 7; 3; 3; 9; 3; 0; 9; 0; 1; 2; 3; 19;
        222; 8; 4020; 43; 3686 ] )
  in
  match walk input with
  | true -> ()
  | false -> Alcotest.fail "walk reported failure"
  | exception QCheck.Test.Test_fail (_, msgs) ->
      Alcotest.failf "walk failed:@.%s" (String.concat "\n" msgs)

let suite =
  [
    Alcotest.test_case "exhaustive exploration is green" `Quick test_exhaustive;
    Alcotest.test_case "exploration is deterministic" `Quick test_deterministic;
    Alcotest.test_case "state cap reported" `Quick test_state_cap;
    Alcotest.test_case "telemetry counters" `Quick test_telemetry;
    Alcotest.test_case "seeded bug found + minimized + replays" `Quick
      test_seeded_bug;
    Alcotest.test_case "sabotage absent without seed_bug" `Quick
      test_bug_free_world_ignores_sabotage;
    Alcotest.test_case "minimizer is 1-minimal" `Quick test_minimize;
    Alcotest.test_case "trace pretty-printer" `Quick test_trace_pp;
    QCheck_alcotest.to_alcotest qcheck_random_walks;
    Alcotest.test_case "splice-then-replay walk stays green" `Quick
      test_splice_then_replay_walk;
  ]
