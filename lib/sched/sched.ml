open Hyperenclave_hw
open Hyperenclave_sdk
module Telemetry = Hyperenclave_obs.Telemetry
module Fault = Hyperenclave_fault.Fault

type config = {
  cores : int;
  work_stealing : bool;
  batch : int;
  drop_on_error : bool;
}

let default_config =
  { cores = 2; work_stealing = true; batch = 1; drop_on_error = false }

type on_result = index:int -> core:int -> (unit, string) result -> unit

(* A staged slot ring runs once on the shared clock, then its slots are
   placed on cores: [head, tail) are the slots no core has claimed yet;
   the owner claims from the head, a joiner from the tail.  A job is
   built once ({!ring_job}) and queued again per run: [submit_job]
   rewinds its cursors and links it in through [link], its own [Some],
   so a run allocates no job, link or closure. *)
type job = {
  ring : Urts.ring;
  owner : int;
  on_result : on_result option;
  on_slice : (cycles:int -> unit) option;
  svc_counter : Telemetry.counter_handle option;
  link : job option;  (* [Some] of this job: how a queue holds it *)
  mutable queued : bool;  (* in an owner's queue, from submit to placement *)
  mutable cycles : int;  (* the run's cycles; -1 until run *)
  mutable rest : int;  (* of [cycles], what no slot carries: the owner's *)
  mutable head : int;
  mutable tail : int;
  mutable started : bool;  (* the owner has paid [rest] *)
  mutable joined : bool;
  mutable next : job option;  (* the link to the next job its owner queued *)
}

type core = {
  core_id : int;
  clock : Cycles.t;
  mutable start : int;  (* clock when the current run began *)
  mutable jobs : job option;
      (* own jobs not yet done, in queue order: the link to the first,
         whose [next] links the rest *)
  mutable last : job option;
      (* the link to the last, which [submit_job] extends *)
  mutable joined : job option;
      (* the job this core joined, by its link in its owner's queue *)
  mutable placed : bool;  (* no slot left for this core in this run *)
  mutable busy : int;
  mutable joins : int;
  mutable completed : int;
}

type core_stats = {
  core_id : int;
  cycles : int;
  busy : int;
  joins : int;
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
  svc_counters : (string, Telemetry.counter_handle option) Hashtbl.t;
      (* label -> Some handle of "sched.svc.<label>", built once per label *)
  h_slice : Telemetry.histogram_handle;  (* "sched.slice_cycles" *)
  mutable completed : int;
  mutable failed : int;
  mutable next_job : int;
}

let create ~shared_clock ~telemetry (config : config) =
  if config.cores <= 0 then invalid_arg "Sched.create: cores must be positive";
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
            jobs = None;
            last = None;
            joined = None;
            placed = false;
            busy = 0;
            joins = 0;
            completed = 0;
          });
    svc_counters = Hashtbl.create 8;
    h_slice = Telemetry.histogram_handle telemetry "sched.slice_cycles";
    completed = 0;
    failed = 0;
    next_job = 0;
  }

let svc_counter t = function
  | None -> None
  | Some label -> (
      match Hashtbl.find t.svc_counters label with
      | c -> c
      | exception Not_found ->
          let c =
            Some (Telemetry.counter_handle t.telemetry ("sched.svc." ^ label))
          in
          Hashtbl.add t.svc_counters label c;
          c)

(* A job lands on [core] when given, else round-robin by build order. *)
let ring_job t ?core ?label ?on_result ?on_slice ring =
  let job_id = t.next_job in
  t.next_job <- job_id + 1;
  let owner =
    match core with
    | Some c ->
        if c < 0 || c >= t.config.cores then
          invalid_arg "Sched.ring_job: core out of range";
        c
    | None -> job_id mod t.config.cores
  in
  let rec job =
    {
      ring;
      owner;
      on_result;
      on_slice;
      svc_counter = svc_counter t label;
      link = Some job;
      queued = false;
      cycles = -1;
      rest = 0;
      head = 0;
      tail = 0;
      started = false;
      joined = false;
      next = None;
    }
  in
  job

(* The queue is threaded through its jobs' own links, so appending
   allocates nothing. *)
let submit_job t (job : job) =
  if job.queued then invalid_arg "Sched.submit_job: job already queued";
  job.queued <- true;
  job.cycles <- -1;
  job.rest <- 0;
  job.head <- 0;
  job.tail <- 0;
  job.started <- false;
  job.joined <- false;
  job.next <- None;
  let target = t.cores.(job.owner) in
  (match target.last with
  | Some last -> last.next <- job.link
  | None -> target.jobs <- job.link);
  target.last <- job.link

let submit_ring t ?core ?label ?on_result ?on_slice ring =
  submit_job t (ring_job t ?core ?label ?on_result ?on_slice ring)

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
  | Fault.Injected { site; kind } -> Fault.message ~site kind
  | exn -> Printexc.to_string exn

let deliver f ~index ~core result =
  match f with Some f -> f ~index ~core result | None -> ()

(* --- run: every ring once, on the shared clock ------------------------------ *)

(* Dispatch [job]'s ring and count its endings; returns how many slots
   it left for the placer.  The ring runs as one switchless round trip —
   its publish, one post fence, one worker context, its channel
   callbacks, its read-back and their fault retries — and under
   [drop_on_error] a typed failure, a marshalling fault included, fails
   the whole ring: every slot is reported failed on the owner and none
   is placed.  Monitor violations always propagate. *)
let run_ring t (job : job) =
  let count = Urts.ring_staged job.ring in
  match Urts.ring_dispatch job.ring with
  | () ->
      t.completed <- t.completed + count;
      (match job.svc_counter with
      | Some c -> Telemetry.bump c count
      | None -> ());
      count
  | exception ((Urts.Enclave_error _ | Fault.Injected _) as exn)
    when t.config.drop_on_error ->
      let failed = Error (fail_msg exn) in
      for index = 0 to count - 1 do
        deliver job.on_result ~index ~core:job.owner failed
      done;
      t.failed <- t.failed + count;
      let owner = t.cores.(job.owner) in
      owner.completed <- owner.completed + count;
      Telemetry.add t.telemetry "sched.request_failed" count;
      0

(* Record [job]'s run: [on_slice] receives its cycles. *)
let report (job : job) cycles =
  job.cycles <- cycles;
  match job.on_slice with Some f -> f ~cycles | None -> ()

(* Run [job] once and record its cycles; what no slot carries stays with
   the owner as [rest]. *)
let run_job t (job : job) =
  let p0 = Cycles.now t.shared_clock in
  let slots =
    try run_ring t job
    with exn ->
      report job (Cycles.now t.shared_clock - p0);
      raise exn
  in
  let delta = Cycles.now t.shared_clock - p0 in
  job.rest <- delta;
  for slot = 0 to slots - 1 do
    job.rest <- job.rest - Urts.ring_slot_cycles job.ring ~slot
  done;
  job.tail <- slots;
  report job delta;
  Telemetry.sample t.h_slice (max 1 delta)

(* Run a queue's jobs in order, from the link to its first. *)
let rec run_queue t = function
  | Some (job : job) ->
      run_job t job;
      run_queue t job.next
  | None -> ()

(* Take [job] out of its owner's queue: it may be submitted again. *)
let dequeue (job : job) =
  let next = job.next in
  job.queued <- false;
  job.next <- None;
  next

(* Drop core [c]'s queue after an aborted run, charging each job run so
   far whole to [c], its owner. *)
let rec abort (c : core) = function
  | Some (job : job) ->
      if job.cycles >= 0 then busy_tick c job.cycles;
      abort c (dequeue job)
  | None -> ()

(* Every job runs in a fixed host order — owner core, then queue order —
   whatever the placement does later, so runs stay bit-reproducible.  An
   exception that escapes (a monitor violation, or any failure without
   [drop_on_error]) charges each job run so far whole to its owner,
   delivers nothing and drops the run's jobs. *)
let run_jobs t =
  try
    for i = 0 to Array.length t.cores - 1 do
      run_queue t t.cores.(i).jobs
    done
  with exn ->
    Array.iter
      (fun (c : core) ->
        abort c c.jobs;
        c.jobs <- None;
        c.last <- None)
      t.cores;
    raise exn

(* --- placement: the run's slots over the cores ------------------------------ *)

(* Claim slot [i] for [core]: its recorded cycles are slice time on that
   core; a claim on a joined ring also pulls the cursor's cache line, on
   the core's clock only. *)
let claim (core : core) (job : job) i =
  busy_tick core (Urts.ring_slot_cycles job.ring ~slot:i);
  if job.joined then Cycles.tick core.clock (Urts.ring_claim_cycles job.ring);
  core.completed <- core.completed + 1;
  deliver job.on_result ~index:i ~core:core.core_id (Ok ())

(* The job with the most unclaimed slots, first in host order on a tie,
   by its link in its owner's queue ([None] when no slot is left).  Only
   counts decide; no recorded cost is read.  Handing out the queue's own
   links keeps the search and the join allocation-free. *)
let unclaimed = function Some (job : job) -> job.tail - job.head | None -> 0

let busiest_job t =
  let rec busier best = function
    | None -> best
    | Some (job : job) as link ->
        busier (if unclaimed link > unclaimed best then link else best) job.next
  in
  Array.fold_left (fun best (c : core) -> busier best c.jobs) None t.cores

(* A queue without its finished jobs, which leave it here. *)
let rec own = function
  | Some (job : job) when job.started && job.head >= job.tail -> own (dequeue job)
  | link -> link

(* One placement step for [core]: the next head slot of its own jobs in
   queue order (paying a job's unplaced cycles when it starts it); else
   the tail slot of the job it joined; else it joins the busiest job,
   paying the ring's join price on its clock outside slices. *)
let place_step t (core : core) =
  core.jobs <- own core.jobs;
  match core.jobs with
  | Some job ->
      if not job.started then begin
        job.started <- true;
        busy_tick core job.rest
      end;
      if job.head < job.tail then begin
        job.head <- job.head + 1;
        claim core job (job.head - 1)
      end
  | None -> (
      if unclaimed core.joined = 0 && t.config.work_stealing then begin
        core.joined <- busiest_job t;
        match core.joined with
        | Some job ->
            Cycles.tick core.clock (Urts.ring_join_cycles job.ring);
            core.joins <- core.joins + 1;
            job.joined <- true
        | None -> ()
      end;
      match core.joined with
      | Some job when job.head < job.tail ->
          job.tail <- job.tail - 1;
          claim core job job.tail
      | _ -> core.placed <- true)

(* Lay the run's slots out over the cores from the common start: the core
   with the least elapsed time takes the next step, until no core has a
   slot left to claim or a job left to start. *)
let place t =
  let joins () = Array.fold_left (fun n (c : core) -> n + c.joins) 0 t.cores in
  let before = joins () in
  Array.iter (fun (c : core) -> c.placed <- false) t.cores;
  let unplaced (c : core) = not c.placed in
  let next = ref (earliest t unplaced) in
  while !next >= 0 do
    place_step t t.cores.(!next);
    next := earliest t unplaced
  done;
  (* Every own queue is empty now: the next [submit_job] starts a new
     one. *)
  Array.iter
    (fun (c : core) ->
      c.joined <- None;
      c.last <- None)
    t.cores;
  if joins () > before then Telemetry.add t.telemetry "sched.join" (joins () - before)

(* --- runs -------------------------------------------------------------------- *)

(* Read-only aggregation over the core state and the request counters:
   safe to call at any point (including between [submit_job] and [run]) — it
   never advances a clock or drains a queue.  Placed jobs are not kept,
   so a long-lived scheduler holds no per-job state. *)
let stats t =
  let per_core =
    Array.map
      (fun (core : core) ->
        {
          core_id = core.core_id;
          cycles = Cycles.now core.clock;
          busy = core.busy;
          joins = core.joins;
          completed = core.completed;
        })
      t.cores
  in
  {
    total_requests = t.completed;
    failed_requests = t.failed;
    makespan =
      Array.fold_left (fun acc (c : core_stats) -> max acc c.cycles) 0 per_core;
    per_core;
    steals = 0;
    joins = Array.fold_left (fun acc (c : core_stats) -> acc + c.joins) 0 per_core;
    preempts = 0;
    aex_preempts = 0;
  }

let core_cycles t i = Cycles.now t.cores.(i).clock
let core_busy t i = t.cores.(i).busy

let run t =
  Array.iter (fun (c : core) -> c.start <- Cycles.now c.clock) t.cores;
  run_jobs t;
  place t
