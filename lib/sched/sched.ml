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

(* A core joining a call job pulls the job's enclave state cold: charge
   one OS context switch worth of cache/TLB refill. *)
let steal_cycles = 6_886

type on_result = index:int -> core:int -> (bytes, string) result -> unit

(* What a job runs once: a staged slot ring as one switchless dispatch, or
   a list of individual ECALLs, each call's cycles and ending recorded
   for the placer. *)
type work =
  | Ring of Urts.ring
  | Calls of {
      urts : Urts.t;
      requests : (int * bytes) list;
      cyc : int array;
      endings : (bytes, string) result array;
    }

(* A job runs once on the shared clock, then its units (ring slots or
   calls) are placed on cores: [head, tail) are the units no core has
   claimed yet; the owner claims from the head, a joiner from the
   tail. *)
type job = {
  work : work;
  owner : int;
  on_result : on_result option;
  on_slice : (cycles:int -> unit) option;
  svc_counter : string option;
  mutable cycles : int;  (* the run's cycles; -1 until run *)
  mutable rest : int;  (* of [cycles], what no unit carries: the owner's *)
  mutable head : int;
  mutable tail : int;
  mutable started : bool;  (* the owner has paid [rest] *)
  mutable joined : bool;
}

type core = {
  core_id : int;
  clock : Cycles.t;
  mutable start : int;  (* clock when the current run began *)
  mutable jobs : job list;  (* own jobs not yet done, queue order *)
  mutable joined : job list;
      (* the job this core joined, heading a suffix of its owner's queue;
         [] for none *)
  mutable placed : bool;  (* no unit left for this core in this run *)
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
  svc_names : (string, string option) Hashtbl.t;
      (* label -> Some "sched.svc.<label>", built once per label *)
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
            jobs = [];
            joined = [];
            placed = false;
            busy = 0;
            joins = 0;
            completed = 0;
          });
    svc_names = Hashtbl.create 8;
    completed = 0;
    failed = 0;
    next_job = 0;
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

(* The scheduler never copies reply bytes out of a slot ring — the
   submitter reads them in place from the ring's reply image — so a
   served slot reports this preallocated placeholder instead of
   allocating a fresh [Ok] per request. *)
let ok_in_ring : (bytes, string) result = Ok Bytes.empty

(* Jobs land on [core] when given, else round-robin by submission
   order. *)
let enqueue t ?core ?label ?on_result ?on_slice work =
  let job_id = t.next_job in
  t.next_job <- job_id + 1;
  let target =
    match core with
    | Some c ->
        if c < 0 || c >= t.config.cores then
          invalid_arg "Sched.submit: core out of range";
        t.cores.(c)
    | None -> t.cores.(job_id mod t.config.cores)
  in
  let job =
    {
      work;
      owner = target.core_id;
      on_result;
      on_slice;
      svc_counter = svc_counter t label;
      cycles = -1;
      rest = 0;
      head = 0;
      tail = 0;
      started = false;
      joined = false;
    }
  in
  target.jobs <- target.jobs @ [ job ]

let submit t ?core ?on_result ~urts requests =
  let n = List.length requests in
  enqueue t ?core ?on_result
    (Calls
       { urts; requests; cyc = Array.make n 0; endings = Array.make n ok_in_ring })

let submit_ring t ?core ?label ?on_result ?on_slice ring =
  enqueue t ?core ?label ?on_result ?on_slice (Ring ring)

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

let deliver f ~index ~core result =
  match f with Some f -> f ~index ~core result | None -> ()

(* --- run: every job once, on the shared clock ------------------------------- *)

(* Run [job]'s work and count its endings; returns how many units it
   left for the placer.  A ring runs as one switchless unit — one post
   fence, one worker context, its channel callbacks and fault retry — and
   under [drop_on_error] a typed failure fails the whole ring: every slot
   is reported failed on the owner and none is placed.  A call job runs
   one [Urts.ecall] per call; under [drop_on_error] a typed failure ends
   only that call.  Monitor violations always propagate. *)
let run_units t (job : job) =
  match job.work with
  | Ring ring -> (
      let count = Urts.ring_staged ring in
      match Urts.ring_dispatch ring with
      | () ->
          t.completed <- t.completed + count;
          (match job.svc_counter with
          | Some c -> Telemetry.add t.telemetry c count
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
          0)
  | Calls c ->
      List.iteri
        (fun i (id, data) ->
          let c0 = Cycles.now t.shared_clock in
          (c.endings.(i) <-
             match Urts.ecall c.urts ~id ~data ~direction:Edge.In_out () with
             | reply ->
                 t.completed <- t.completed + 1;
                 Ok reply
             | exception ((Urts.Enclave_error _ | Fault.Injected _) as exn)
               when t.config.drop_on_error ->
                 t.failed <- t.failed + 1;
                 Telemetry.incr t.telemetry "sched.request_failed";
                 Error (fail_msg exn));
          c.cyc.(i) <- Cycles.now t.shared_clock - c0)
        c.requests;
      Array.length c.cyc

let unit_cycles (job : job) i =
  match job.work with
  | Ring ring -> Urts.ring_slot_cycles ring ~slot:i
  | Calls c -> c.cyc.(i)

(* Run [job] once and record its cycles: [on_slice] receives them all,
   and what no unit carries stays with the owner as [rest]. *)
let run_job t (job : job) =
  let p0 = Cycles.now t.shared_clock in
  let report cycles =
    job.cycles <- cycles;
    match job.on_slice with Some f -> f ~cycles | None -> ()
  in
  let units =
    try run_units t job
    with exn ->
      report (Cycles.now t.shared_clock - p0);
      raise exn
  in
  let delta = Cycles.now t.shared_clock - p0 in
  job.rest <- delta;
  for i = 0 to units - 1 do
    job.rest <- job.rest - unit_cycles job i
  done;
  job.tail <- units;
  report delta;
  Telemetry.observe t.telemetry "sched.slice_cycles" (max 1 delta)

(* Every job runs in a fixed host order — owner core, then queue order —
   whatever the placement does later, so runs stay bit-reproducible.  An
   exception that escapes (a monitor violation, or any failure without
   [drop_on_error]) charges each job run so far whole to its owner,
   delivers nothing and drops the run's jobs. *)
let run_jobs t =
  let rec run = function
    | [] -> ()
    | job :: rest ->
        run_job t job;
        run rest
  in
  try
    for i = 0 to Array.length t.cores - 1 do
      run t.cores.(i).jobs
    done
  with exn ->
    Array.iter
      (fun (c : core) ->
        List.iter
          (fun (job : job) -> if job.cycles >= 0 then busy_tick c job.cycles)
          c.jobs;
        c.jobs <- [])
      t.cores;
    raise exn

(* --- placement: the run's units over the cores ------------------------------ *)

(* What a second core pays to join a job, and then per unit it claims on
   the job: a ring's second worker and shared cursor, or a call job's
   cold enclave state (its calls have no shared cursor). *)
let join_cycles (job : job) =
  match job.work with
  | Ring ring -> Urts.ring_join_cycles ring
  | Calls _ -> steal_cycles

let claim_cycles (job : job) =
  match job.work with Ring ring -> Urts.ring_claim_cycles ring | Calls _ -> 0

(* Claim one unit for [core]: its recorded cycles are slice time on that
   core; a claim on a joined ring also pulls the cursor's cache line, on
   the core's clock only. *)
let claim (core : core) (job : job) i =
  busy_tick core (unit_cycles job i);
  if job.joined then Cycles.tick core.clock (claim_cycles job);
  core.completed <- core.completed + 1;
  deliver job.on_result ~index:i ~core:core.core_id
    (match job.work with Ring _ -> ok_in_ring | Calls c -> c.endings.(i))

(* The job with the most unclaimed units, first in host order on a tie,
   as the suffix of its owner's queue that it heads ([] when no unit is
   left).  Only counts decide; no recorded cost is read.  Handling jobs
   as list suffixes keeps the search and the join allocation-free. *)
let unclaimed = function (job : job) :: _ -> job.tail - job.head | [] -> 0

let busiest_job t =
  let rec busier best = function
    | [] -> best
    | _ :: rest as jobs ->
        busier (if unclaimed jobs > unclaimed best then jobs else best) rest
  in
  Array.fold_left (fun best (c : core) -> busier best c.jobs) [] t.cores

(* One placement step for [core]: the next head unit of its own jobs in
   queue order (paying a job's unplaced cycles when it starts it); else
   the tail unit of the job it joined; else it joins the busiest job,
   paying [join_cycles] on its clock outside slices. *)
let place_step t (core : core) =
  let rec own = function
    | (job : job) :: rest when job.started && job.head >= job.tail -> own rest
    | jobs -> jobs
  in
  core.jobs <- own core.jobs;
  match core.jobs with
  | job :: _ ->
      if not job.started then begin
        job.started <- true;
        busy_tick core job.rest
      end;
      if job.head < job.tail then begin
        job.head <- job.head + 1;
        claim core job (job.head - 1)
      end
  | [] -> (
      if unclaimed core.joined = 0 && t.config.work_stealing then begin
        core.joined <- busiest_job t;
        match core.joined with
        | job :: _ ->
            Cycles.tick core.clock (join_cycles job);
            core.joins <- core.joins + 1;
            job.joined <- true
        | [] -> ()
      end;
      match core.joined with
      | job :: _ when job.head < job.tail ->
          job.tail <- job.tail - 1;
          claim core job job.tail
      | _ -> core.placed <- true)

(* Lay the run's units out over the cores from the common start: the core
   with the least elapsed time takes the next step, until no core has a
   unit left to claim or a job left to start. *)
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
  Array.iter (fun (c : core) -> c.joined <- []) t.cores;
  if joins () > before then Telemetry.add t.telemetry "sched.join" (joins () - before)

(* --- runs -------------------------------------------------------------------- *)

(* Read-only aggregation over the core state and the request counters:
   safe to call at any point (including between [submit] and [run]) — it
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
  place t;
  stats t
