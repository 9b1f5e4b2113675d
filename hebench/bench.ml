(* One benchmark run: passes of set-up plus a fixed number of rounds.
   The first pass is the reference: untraced, so its simulated metrics and
   minor words repeat exactly for a seed.  With tracing on, the rounds of
   the later passes alternate between traced and untraced, so the tracing
   overhead compares rounds run in the same state. *)

open Hyperenclave

(* Cumulative counters of the running instance; phases and traced rounds
   report the difference of two snapshots. *)
type snap = {
  requests : int;
  sched_failed : int;
  makespan : int;
  steals : int;
  preempts : int;
  aex : int;
  counters : int array;  (** [tracked] counters summed over platforms *)
  sent : int;
  dropped : int;
  wire_cyc : int;
  chases : int;
  migrate_bytes : int;
}

let tracked =
  [|
    "switch.eenter";
    "switch.eexit";
    "switch.aex";
    "switch.eresume";
    "epc.commit";
    "epc.evict";
    "epc.swap_in";
    "tlb.invlpg";
    "sdk.ring_dispatch";
    "sdk.ring_slots";
  |]

let zero =
  {
    requests = 0;
    sched_failed = 0;
    makespan = 0;
    steals = 0;
    preempts = 0;
    aex = 0;
    counters = Array.make (Array.length tracked) 0;
    sent = 0;
    dropped = 0;
    wire_cyc = 0;
    chases = 0;
    migrate_bytes = 0;
  }

let snap (inst : Wl.t) =
  let s =
    List.fold_left
      (fun acc plane ->
        let st = Serve.sched_stats plane in
        {
          acc with
          requests = acc.requests + st.Sched.total_requests;
          sched_failed = acc.sched_failed + st.Sched.failed_requests;
          makespan = max acc.makespan st.Sched.makespan;
          steals = acc.steals + st.Sched.steals;
          preempts = acc.preempts + st.Sched.preempts;
          aex = acc.aex + st.Sched.aex_preempts;
        })
      zero (inst.Wl.planes ())
  in
  let net = Option.map Netsim.stats inst.Wl.net in
  let net_field f = match net with Some n -> f n | None -> 0 in
  {
    s with
    counters =
      Array.map
        (fun name ->
          List.fold_left (fun acc t -> acc + Telemetry.counter t name) 0 inst.Wl.telemetries)
        tracked;
    sent = net_field (fun n -> n.Netsim.sent);
    dropped = net_field (fun n -> n.Netsim.dropped);
    wire_cyc = net_field (fun n -> n.Netsim.cycles_charged);
    chases = !(inst.Wl.chases);
    migrate_bytes = !(inst.Wl.migrate_bytes);
  }

(* [acc + (after - before)], field by field. *)
let accumulate acc ~before ~after =
  let d f = f acc + f after - f before in
  {
    requests = d (fun s -> s.requests);
    sched_failed = d (fun s -> s.sched_failed);
    makespan = d (fun s -> s.makespan);
    steals = d (fun s -> s.steals);
    preempts = d (fun s -> s.preempts);
    aex = d (fun s -> s.aex);
    counters = Array.init (Array.length tracked) (fun i -> d (fun s -> s.counters.(i)));
    sent = d (fun s -> s.sent);
    dropped = d (fun s -> s.dropped);
    wire_cyc = d (fun s -> s.wire_cyc);
    chases = d (fun s -> s.chases);
    migrate_bytes = d (fun s -> s.migrate_bytes);
  }

let counter d name =
  let rec find i = if tracked.(i) = name then i else find (i + 1) in
  d.counters.(find 0)

(* Scheduler-only rate over a delta: requests the cores completed over
   the advance of the slowest node's makespan — the formula every
   earlier headline used. *)
let makespan_rps d =
  float_of_int d.requests *. Meter.clock_hz /. float_of_int (max 1 d.makespan)

type t = {
  workload : string;
  setups : Wl.times list;
  setup_s : float;  (** median over passes of their fastest set-up *)
  reference : Meter.phase;
  ref_delta : snap;
  rest : Meter.phase;  (** untraced rounds after the reference phase *)
  traced : Meter.phase;  (** traced rounds (none when tracing is off) *)
  traced_delta : snap;  (** summed over the traced rounds *)
  passes : int;
  pass_rounds : int;
  heap_top_mb : float;  (** after the reference pass *)
}

let setup_total (t : Wl.times) =
  t.Wl.platform_s +. t.Wl.tenants_s +. t.Wl.load_s +. t.Wl.handshake_s

(* Run rounds [0, n), round [r] accounted to [phase r] and traced when
   [traced r] (its snapshot delta then added to [traced_delta]). *)
let run_rounds (inst : Wl.t) ?(traced_delta = ref zero) ~phase ~traced n =
  let r = ref 0 in
  while !r < n do
    let ph = phase !r in
    Span.enabled := traced !r;
    let before = if !Span.enabled then snap inst else zero in
    let thunk = inst.Wl.prepare ph !r in
    Span.round := !r;
    let served0 = ph.Meter.served in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let sp = Span.enter "round" in
    thunk ();
    Span.leave sp;
    let us = (Unix.gettimeofday () -. t0) *. 1e6 in
    ph.Meter.words <- ph.Meter.words +. (Gc.minor_words () -. w0);
    ph.Meter.host <- (!r, us, ph.Meter.served - served0) :: ph.Meter.host;
    ph.Meter.rounds <- ph.Meter.rounds + 1;
    if !Span.enabled then
      traced_delta := accumulate !traced_delta ~before ~after:(snap inst);
    incr r
  done;
  Span.enabled := false

let setups = 3

(* A run repeats whole passes — set up, run rounds on the fresh
   instance, tear down — so every pass does the same work from the same
   state; the system's own state growth over a long session (the
   scheduler keeps every job it ever ran) cannot leak into the host
   metrics through how many rounds a machine manages in [seconds].  The
   first pass is the reference pass, [rounds] rounds long; the others run
   the first [pass_rounds] of those rounds again.  Passes continue while
   another one fits in [seconds], and there are at least [min_passes]. *)
let run ?(min_passes = 3) ~workload ~seed ~seconds ~trace ~rounds ~pass_rounds () =
  let start = Unix.gettimeofday () in
  let times = ref [] and pass_setup_s = ref [] in
  (* A pass sets up [setups] times back to back and keeps the last
     instance; its set-up time is the fastest of them.  Each set-up starts
     from a compacted heap, so it does not pay for collecting the garbage
     of the one before. *)
  let boot () =
    let rec go i best =
      Gc.compact ();
      let inst, t = Wl.setup workload ~seed in
      times := t :: !times;
      let best = Float.min best (setup_total t) in
      if i + 1 < setups then begin
        inst.Wl.destroy ();
        go (i + 1) best
      end
      else begin
        pass_setup_s := best :: !pass_setup_s;
        inst
      end
    in
    go 0 Float.infinity
  in
  let inst = boot () in
  let reference = Meter.phase () in
  let ref_before = snap inst in
  run_rounds inst ~phase:(fun _ -> reference) ~traced:(fun _ -> false) rounds;
  let ref_delta = accumulate zero ~before:ref_before ~after:(snap inst) in
  let heap_top_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  inst.Wl.destroy ();
  let rest = Meter.phase () and traced = Meter.phase () in
  let traced_delta = ref zero in
  Span.reset ();
  let is_traced r = trace && r mod 2 = 0 in
  let passes = ref 1 and last = ref (Unix.gettimeofday () -. start) in
  while
    !passes < min_passes || Unix.gettimeofday () -. start +. !last <= seconds
  do
    let t0 = Unix.gettimeofday () in
    let inst = boot () in
    Span.cycles := inst.Wl.cycles;
    run_rounds inst ~traced_delta
      ~phase:(fun r -> if is_traced r then traced else rest)
      ~traced:is_traced pass_rounds;
    inst.Wl.destroy ();
    incr passes;
    last := Unix.gettimeofday () -. t0
  done;
  {
    workload;
    setups = !times;
    setup_s = Meter.median_float !pass_setup_s;
    passes = !passes;
    pass_rounds;
    reference;
    ref_delta;
    rest;
    traced;
    traced_delta = !traced_delta;
    heap_top_mb;
  }

(* --- end-to-end metrics --------------------------------------------------- *)

let phases t = [ t.reference; t.rest; t.traced ]
let attempted t = List.fold_left (fun acc ph -> acc + ph.Meter.attempted) 0 (phases t)
let failed t = List.fold_left (fun acc ph -> acc + ph.Meter.failed) 0 (phases t)

let failed_ratio t = float_of_int (failed t) /. float_of_int (max 1 (attempted t))

(* For each round that every pass runs, the fastest of its untraced
   executions across passes (every pass runs the same rounds on the same
   state); their sum over the requests those rounds serve.  Interference
   from the rest of the host only ever adds time, so the fastest of
   identical executions is the least disturbed one. *)
let host_us_per_req t =
  let best = Hashtbl.create 1024 in
  List.iter
    (fun (r, us, served) ->
      match Hashtbl.find_opt best r with
      | Some (b, _) when b <= us -> ()
      | _ -> Hashtbl.replace best r (us, served))
    (List.filter (fun (r, _, _) -> r < t.pass_rounds) t.reference.Meter.host
    @ t.rest.Meter.host);
  let us, served = Hashtbl.fold (fun _ (us, n) (a, b) -> (a +. us, b + n)) best (0., 0) in
  us /. float_of_int (max 1 served)

let minor_words_per_req t =
  t.reference.Meter.words /. float_of_int (max 1 t.reference.Meter.served)

let pct s p = float_of_int (Meter.Samples.percentile s p)
