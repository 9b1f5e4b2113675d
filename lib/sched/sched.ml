open Hyperenclave_hw
open Hyperenclave_sdk
module Telemetry = Hyperenclave_obs.Telemetry
module Fault = Hyperenclave_fault.Fault

type config = {
  cores : int;
  quantum : int;
  work_stealing : bool;
  batch : int;
  drop_on_error : bool;
}

let default_config =
  {
    cores = 2;
    quantum = 250_000;
    work_stealing = true;
    batch = 1;
    drop_on_error = false;
  }

(* Migrating a job pulls its working set cold on the thief: charge one
   OS context switch worth of cache/TLB refill. *)
let steal_cycles = 6_886

type on_result = index:int -> core:int -> (bytes, string) result -> unit

(* A list of individual ECALLs, run in quantum-bounded slices; a drained
   core may steal it whole. *)
type job = {
  urts : Urts.t;
  mutable calls : (int * bytes) list;
  mutable next_index : int;  (* submission index of the head of [calls] *)
  on_result : on_result option;
  on_slice : (cycles:int -> unit) option;
  svc_counter : string option;
}

(* A staged slot ring.  [run] dispatches it once on the shared clock,
   then places its slots on cores: [head, tail) are the slots no core
   has claimed yet; the owner claims from the head, joiners from the
   tail. *)
type ring_job = {
  ring : Urts.ring;
  owner : int;
  r_on_result : on_result option;
  r_on_slice : (cycles:int -> unit) option;
  r_svc_counter : string option;
  mutable cycles : int;  (* the dispatch's cycles; -1 until dispatched *)
  mutable rest : int;  (* of [cycles], what no slot carries: the owner's *)
  mutable head : int;
  mutable tail : int;
  mutable started : bool;  (* the owner has paid [rest] *)
  mutable joined : bool;
}

type core = {
  core_id : int;
  clock : Cycles.t;
  mutable start : int;  (* clock when the current run began *)
  mutable queue : job list;  (* front = next to run *)
  mutable rings : ring_job list;  (* own rings not yet done, queue order *)
  mutable joined : ring_job list;
      (* the ring this core joined, heading a suffix of its owner's
         queue; [] for none *)
  mutable placed : bool;  (* no slot left for this core in this run *)
  mutable busy : int;
  mutable steals : int;
  mutable joins : int;
  mutable preempts : int;
  mutable completed : int;
}

type core_stats = {
  core_id : int;
  cycles : int;
  busy : int;
  steals : int;
  joins : int;
  preempts : int;
  completed : int;
}

type stats = {
  total_requests : int;
  failed_requests : int;
  makespan : int;
  per_core : core_stats array;
  steals : int;
  joins : int;
  preempts : int;
  aex_preempts : int;
}

type t = {
  shared_clock : Cycles.t;
  telemetry : Telemetry.t;
  config : config;
  cores : core array;
  on_preempt : (core_id:int -> unit) option;
  svc_names : (string, string option) Hashtbl.t;
      (* label -> Some "sched.svc.<label>", built once per label *)
  mutable completed : int;
  mutable failed : int;
  mutable next_job : int;
  mutable aex_preempts : int;
}

let create ?on_preempt ~shared_clock ~telemetry (config : config) =
  if config.cores <= 0 then invalid_arg "Sched.create: cores must be positive";
  if config.quantum <= 0 then invalid_arg "Sched.create: quantum must be positive";
  {
    shared_clock;
    telemetry;
    config;
    cores =
      Array.init config.cores (fun core_id ->
          {
            core_id;
            clock = Cycles.create ();
            start = 0;
            queue = [];
            rings = [];
            joined = [];
            placed = false;
            busy = 0;
            steals = 0;
            joins = 0;
            preempts = 0;
            completed = 0;
          });
    on_preempt;
    svc_names = Hashtbl.create 8;
    completed = 0;
    failed = 0;
    next_job = 0;
    aex_preempts = 0;
  }

let svc_counter t = function
  | None -> None
  | Some label -> (
      match Hashtbl.find t.svc_names label with
      | name -> name
      | exception Not_found ->
          let name = Some ("sched.svc." ^ label) in
          Hashtbl.add t.svc_names label name;
          name)

(* Jobs land on [core] when given, else round-robin by submission
   order. *)
let home t core =
  let job_id = t.next_job in
  t.next_job <- job_id + 1;
  match core with
  | Some c ->
      if c < 0 || c >= t.config.cores then
        invalid_arg "Sched.submit: core out of range";
      t.cores.(c)
  | None -> t.cores.(job_id mod t.config.cores)

let submit t ?core ?label ?on_result ?on_slice ~urts requests =
  let target = home t core in
  let job =
    {
      urts;
      calls = requests;
      next_index = 0;
      on_result;
      on_slice;
      svc_counter = svc_counter t label;
    }
  in
  target.queue <- target.queue @ [ job ]

let submit_ring t ?core ?label ?on_result ?on_slice ring =
  let target = home t core in
  let job =
    {
      ring;
      owner = target.core_id;
      r_on_result = on_result;
      r_on_slice = on_slice;
      r_svc_counter = svc_counter t label;
      cycles = -1;
      rest = 0;
      head = 0;
      tail = 0;
      started = false;
      joined = false;
    }
  in
  target.rings <- target.rings @ [ job ]

(* Cycles core [c] has advanced since the run began: every pick compares
   these, never absolute clocks, so a core whose clock lags from earlier
   runs is not "earliest" for the whole of this one. *)
let elapsed (c : core) = Cycles.now c.clock - c.start

(* Discrete-event pick: the candidate core with the least elapsed time
   acts next; ties break to the lowest core id so runs are reproducible
   bit for bit.  Returns its index, or -1 when no core is a candidate. *)
let earliest t pred =
  let best = ref (-1) in
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    if pred c && (!best < 0 || elapsed c < elapsed t.cores.(!best)) then
      best := i
  done;
  !best

let busy_tick (core : core) cycles =
  Cycles.tick core.clock cycles;
  core.busy <- core.busy + cycles

let fail_msg = function
  | Urts.Enclave_error m -> "enclave: " ^ m
  | Fault.Injected { site; kind } ->
      Printf.sprintf "injected %s fault at %s" (Fault.kind_name kind) site
  | exn -> Printexc.to_string exn

(* --- slot rings -------------------------------------------------------------- *)

(* The scheduler never copies reply bytes out of a slot ring — the
   submitter reads them in place from the ring's reply image — so a
   successful slot reports this preallocated placeholder instead of
   allocating a fresh [Ok] per request. *)
let ok_in_ring : (bytes, string) result = Ok Bytes.empty

let deliver f ~index ~core result =
  match f with Some f -> f ~index ~core result | None -> ()

(* Run one ring on the shared clock: one post fence, one worker context,
   the channel callbacks and the fault retry, exactly as a single
   switchless unit.  Under [drop_on_error] a typed failure fails the
   whole ring: its cycles stay with the owner and no core joins it. *)
let dispatch_ring t (r : ring_job) =
  let count = Urts.ring_staged r.ring in
  let p0 = Cycles.now t.shared_clock in
  let outcome =
    match Urts.ring_dispatch r.ring with
    | () -> None
    | exception ((Urts.Enclave_error _ | Fault.Injected _) as exn)
      when t.config.drop_on_error ->
        Some (fail_msg exn)
    | exception exn ->
        r.cycles <- Cycles.now t.shared_clock - p0;
        (match r.r_on_slice with Some f -> f ~cycles:r.cycles | None -> ());
        raise exn
  in
  let delta = Cycles.now t.shared_clock - p0 in
  r.cycles <- delta;
  r.rest <- delta;
  (match r.r_on_slice with Some f -> f ~cycles:delta | None -> ());
  Telemetry.observe t.telemetry "sched.slice_cycles" (max 1 delta);
  match outcome with
  | None ->
      for slot = 0 to count - 1 do
        r.rest <- r.rest - Urts.ring_slot_cycles r.ring ~slot
      done;
      r.tail <- count;
      t.completed <- t.completed + count;
      (match r.r_svc_counter with
      | Some c -> Telemetry.add t.telemetry c count
      | None -> ())
  | Some msg ->
      let failed = Error msg in
      for index = 0 to count - 1 do
        deliver r.r_on_result ~index ~core:r.owner failed
      done;
      t.failed <- t.failed + count;
      let owner = t.cores.(r.owner) in
      owner.completed <- owner.completed + count;
      Telemetry.add t.telemetry "sched.request_failed" count

(* Every ring runs in a fixed host order — owner core, then queue order —
   whatever the placement does later, so runs stay bit-reproducible.  An
   exception that escapes (a monitor violation, or any failure without
   [drop_on_error]) charges each ring dispatched so far whole to its
   owner and drops the run's rings. *)
let dispatch_rings t =
  let rec dispatch = function
    | [] -> ()
    | r :: rest ->
        dispatch_ring t r;
        dispatch rest
  in
  try
    for i = 0 to Array.length t.cores - 1 do
      dispatch t.cores.(i).rings
    done
  with exn ->
    Array.iter
      (fun (c : core) ->
        List.iter
          (fun (r : ring_job) -> if r.cycles >= 0 then busy_tick c r.cycles)
          c.rings;
        c.rings <- [])
      t.cores;
    raise exn

(* Claim one slot for [core]: the slot's recorded cycles are slice time
   on that core; a claim on a joined ring also pulls the cursor's cache
   line, on the core's clock only. *)
let claim (core : core) (r : ring_job) slot =
  busy_tick core (Urts.ring_slot_cycles r.ring ~slot);
  if r.joined then Cycles.tick core.clock (Urts.ring_claim_cycles r.ring);
  core.completed <- core.completed + 1;
  deliver r.r_on_result ~index:slot ~core:core.core_id ok_in_ring

(* The ring with the most unclaimed slots, first in host order on a tie,
   as the suffix of its owner's queue that it heads ([] when no slot is
   left).  Only counts decide; no recorded cost is read.  Handling rings
   as list suffixes keeps the search and the join allocation-free. *)
let unclaimed = function r :: _ -> r.tail - r.head | [] -> 0

let busiest_ring t =
  let rec busier best = function
    | [] -> best
    | _ :: rest as rings ->
        busier (if unclaimed rings > unclaimed best then rings else best) rest
  in
  Array.fold_left (fun best (c : core) -> busier best c.rings) [] t.cores

(* One placement step for [core]: the next head slot of its own rings in
   queue order (paying a ring's unslotted cycles when it starts it);
   else the tail slot of the ring it joined; else it joins the busiest
   ring.  A join is a second worker entering the ring: its own post
   fence, worker context entry and exit, and the cursor's cache line,
   all on the joiner's clock outside slices. *)
let place_step t (core : core) =
  let rec own = function
    | r :: rest when r.started && r.head >= r.tail -> own rest
    | rings -> rings
  in
  core.rings <- own core.rings;
  match core.rings with
  | r :: _ ->
      if not r.started then begin
        r.started <- true;
        busy_tick core r.rest
      end;
      if r.head < r.tail then begin
        r.head <- r.head + 1;
        claim core r (r.head - 1)
      end
  | [] -> (
      if unclaimed core.joined = 0 && t.config.work_stealing then begin
        core.joined <- busiest_ring t;
        match core.joined with
        | r :: _ ->
            Cycles.tick core.clock (Urts.ring_join_cycles r.ring);
            core.joins <- core.joins + 1;
            r.joined <- true
        | [] -> ()
      end;
      match core.joined with
      | r :: _ when r.head < r.tail ->
          r.tail <- r.tail - 1;
          claim core r r.tail
      | _ -> core.placed <- true)

(* Lay the run's slots out over the cores from the common start: the
   core with the least elapsed time takes the next step, until no core
   has a slot left to claim or a ring left to start. *)
let place_slots t =
  let joins () = Array.fold_left (fun n (c : core) -> n + c.joins) 0 t.cores in
  let before = joins () in
  Array.iter (fun (c : core) -> c.placed <- false) t.cores;
  let unplaced (c : core) = not c.placed in
  let next = ref (earliest t unplaced) in
  while !next >= 0 do
    place_step t t.cores.(!next);
    next := earliest t unplaced
  done;
  Array.iter (fun (c : core) -> c.joined <- []) t.cores;
  if joins () > before then Telemetry.add t.telemetry "sched.join" (joins () - before)

(* --- individual calls -------------------------------------------------------- *)

(* Run one request of [job].  Typed failures — an injected permanent
   fault or an SDK refusal — optionally drop the request so chaos
   schedules drain to completion; monitor violations always
   propagate. *)
let run_request t (core : core) (job : job) =
  match job.calls with
  | [] -> ()
  | (id, data) :: rest -> (
      job.calls <- rest;
      let index = job.next_index in
      job.next_index <- index + 1;
      match Urts.ecall job.urts ~id ~data ~direction:Edge.In_out () with
      | reply ->
          deliver job.on_result ~index ~core:core.core_id (Ok reply);
          t.completed <- t.completed + 1;
          core.completed <- core.completed + 1;
          (match job.svc_counter with
          | Some c -> Telemetry.incr t.telemetry c
          | None -> ())
      | exception ((Urts.Enclave_error _ | Fault.Injected _) as exn)
        when t.config.drop_on_error ->
          deliver job.on_result ~index ~core:core.core_id (Error (fail_msg exn));
          t.failed <- t.failed + 1;
          core.completed <- core.completed + 1;
          Telemetry.incr t.telemetry "sched.request_failed")

(* One scheduling slice: execute requests on the shared platform clock
   until the quantum is consumed or the job drains, then charge the
   elapsed delta to the core-local clock.  The job's AEX timer is armed
   for the duration, so a single long request still gets sheared into
   quantum-sized chunks by genuine AEX/ERESUME round trips. *)
let run_slice t (core : core) (job : job) =
  let start = Cycles.now t.shared_clock in
  let consumed () = Cycles.now t.shared_clock - start in
  Urts.arm_timer job.urts ~quantum:t.config.quantum
    ?on_preempt:
      (Some
         (fun () ->
           t.aex_preempts <- t.aex_preempts + 1;
           match t.on_preempt with
           | Some f -> f ~core_id:core.core_id
           | None -> ()))
    ();
  let finish () =
    Urts.disarm_timer job.urts;
    let delta = consumed () in
    busy_tick core delta;
    (match job.on_slice with Some f -> f ~cycles:delta | None -> ());
    delta
  in
  (try
     while job.calls <> [] && consumed () < t.config.quantum do
       run_request t core job
     done
   with exn ->
     ignore (finish () : int);
     raise exn);
  Telemetry.observe t.telemetry "sched.slice_cycles" (max 1 (finish ()));
  if job.calls <> [] then begin
    (* Quantum expired with work left: requeue at the back. *)
    core.preempts <- core.preempts + 1;
    Telemetry.incr t.telemetry "sched.preempt";
    (match t.on_preempt with Some f -> f ~core_id:core.core_id | None -> ());
    core.queue <- core.queue @ [ job ]
  end

(* Steal from the richest queue (most waiting jobs; ties to the lowest
   core id), taking from the BACK — the job the victim would reach
   last, so the victim's own order is disturbed least.  Only called
   while some other core has a queued job. *)
let steal t (thief : core) =
  let victim =
    Array.fold_left
      (fun (v : core) (c : core) ->
        if c.core_id <> thief.core_id
           && List.length c.queue > List.length v.queue
        then c
        else v)
      thief t.cores
  in
  match List.rev victim.queue with
  | [] -> assert false
  | last :: rev_front ->
      victim.queue <- List.rev rev_front;
      thief.steals <- thief.steals + 1;
      Telemetry.incr t.telemetry "sched.steal";
      Cycles.tick thief.clock steal_cycles;
      last

let run_calls t =
  let has_work (c : core) = c.queue <> [] in
  let candidate (c : core) = t.config.work_stealing || has_work c in
  while Array.exists has_work t.cores do
    let core = t.cores.(earliest t candidate) in
    let job =
      match core.queue with
      | job :: rest ->
          core.queue <- rest;
          job
      | [] -> steal t core
    in
    run_slice t core job
  done

(* --- runs -------------------------------------------------------------------- *)

(* Read-only aggregation over the core state and the request counters:
   safe to call at any point (including between [submit] and [run]) — it
   never advances a clock or drains a queue.  Drained jobs are not kept,
   so a long-lived scheduler holds no per-job state. *)
let stats t =
  let per_core =
    Array.map
      (fun (core : core) ->
        {
          core_id = core.core_id;
          cycles = Cycles.now core.clock;
          busy = core.busy;
          steals = core.steals;
          joins = core.joins;
          preempts = core.preempts;
          completed = core.completed;
        })
      t.cores
  in
  let sum f = Array.fold_left (fun acc (c : core_stats) -> acc + f c) 0 per_core in
  {
    total_requests = t.completed;
    failed_requests = t.failed;
    makespan =
      Array.fold_left (fun acc (c : core_stats) -> max acc c.cycles) 0 per_core;
    per_core;
    steals = sum (fun c -> c.steals);
    joins = sum (fun c -> c.joins);
    preempts = sum (fun c -> c.preempts);
    aex_preempts = t.aex_preempts;
  }

let core_cycles t i = Cycles.now t.cores.(i).clock
let core_busy t i = t.cores.(i).busy

let run t =
  Array.iter (fun (c : core) -> c.start <- Cycles.now c.clock) t.cores;
  dispatch_rings t;
  place_slots t;
  run_calls t;
  stats t

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "@[<v>%d requests (%d failed), makespan %d cycles, %d steals, %d joins, \
     %d preempts, %d AEX preempts"
    s.total_requests s.failed_requests s.makespan s.steals s.joins s.preempts
    s.aex_preempts;
  Array.iter
    (fun c ->
      Format.fprintf fmt
        "@,  core %d: clock %d, busy %d, %d done, %d stolen, %d joined, %d \
         preempted"
        c.core_id c.cycles c.busy c.completed c.steals c.joins c.preempts)
    s.per_core;
  Format.fprintf fmt "@]"
