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

(* A job's work is either a list of individual ECALLs or one slot ring
   whose slots were staged by the caller: the ring dispatches as a single
   switchless unit, and the caller reads the replies out of the ring's
   reply image afterwards (the scheduler only reports per-slot success
   or failure). *)
type work = Calls of (int * bytes) list | Ring of Urts.ring

type job = {
  job_id : int;
  urts : Urts.t;
  mutable work : work;
  mutable next_index : int;  (* submission index of the head of [work] *)
  on_result : (index:int -> (bytes, string) result -> unit) option;
  on_slice : (cycles:int -> unit) option;
  svc_counter : string option;
      (* "sched.svc.<label>": per-service completion counter, prefixed
         once at submit so the hot path only increments *)
}

let drained (job : job) =
  match job.work with Calls [] -> true | Calls _ | Ring _ -> false

type core = {
  core_id : int;
  clock : Cycles.t;
  mutable queue : job list;  (* front = next to run *)
  mutable busy : int;
  mutable steals : int;
  mutable preempts : int;
  mutable completed : int;
}

type core_stats = {
  core_id : int;
  cycles : int;
  busy : int;
  steals : int;
  preempts : int;
  completed : int;
}

type stats = {
  total_requests : int;
  failed_requests : int;
  makespan : int;
  per_core : core_stats array;
  steals : int;
  preempts : int;
  aex_preempts : int;
}

type t = {
  shared_clock : Cycles.t;
  telemetry : Telemetry.t;
  config : config;
  cores : core array;
  on_preempt : (core_id:int -> unit) option;
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
            queue = [];
            busy = 0;
            steals = 0;
            preempts = 0;
            completed = 0;
          });
    on_preempt;
    completed = 0;
    failed = 0;
    next_job = 0;
    aex_preempts = 0;
  }

let submit_work t ?core ?label ?on_result ?on_slice ~urts work =
  let job_id = t.next_job in
  t.next_job <- job_id + 1;
  let home =
    match core with
    | Some c ->
        if c < 0 || c >= t.config.cores then
          invalid_arg "Sched.submit: core out of range";
        c
    | None -> job_id mod t.config.cores
  in
  let job =
    {
      job_id;
      urts;
      work;
      next_index = 0;
      on_result;
      on_slice;
      svc_counter = Option.map (fun l -> "sched.svc." ^ l) label;
    }
  in
  let target = t.cores.(home) in
  target.queue <- target.queue @ [ job ]

let submit t ?core ?label ?on_result ?on_slice ~urts requests =
  submit_work t ?core ?label ?on_result ?on_slice ~urts (Calls requests)

let submit_ring t ?core ?label ?on_result ?on_slice ~urts ring =
  submit_work t ?core ?label ?on_result ?on_slice ~urts (Ring ring)

(* Discrete-event pick: the candidate core with the earliest local clock
   runs next; ties break to the lowest core id so runs are reproducible
   bit for bit. *)
let earliest t pred =
  Array.fold_left
    (fun acc (core : core) ->
      if not (pred core) then acc
      else
        match acc with
        | Some (best : core)
          when Cycles.now best.clock < Cycles.now core.clock
               || (Cycles.now best.clock = Cycles.now core.clock
                  && best.core_id < core.core_id) ->
            acc
        | Some _ | None -> Some core)
    None t.cores

(* Steal from the richest queue (most waiting jobs; ties to the lowest
   core id), taking from the BACK — the job the victim would reach
   last, so the victim's own order is disturbed least. *)
let steal t (thief : core) =
  let victim =
    Array.fold_left
      (fun acc (core : core) ->
        if core.core_id = thief.core_id || core.queue = [] then acc
        else
          match acc with
          | Some (v : core) when List.length v.queue >= List.length core.queue
            ->
              acc
          | Some _ | None -> Some core)
      None t.cores
  in
  match victim with
  | None -> None
  | Some v -> (
      match List.rev v.queue with
      | [] -> None
      | last :: rev_front ->
          v.queue <- List.rev rev_front;
          thief.steals <- thief.steals + 1;
          Telemetry.incr t.telemetry "sched.steal";
          Cycles.tick thief.clock steal_cycles;
          Some last)

(* Run one request (or one whole ring) of [job].  Typed failures — an
   injected permanent fault or an SDK refusal — optionally drop the
   request so chaos schedules drain to completion; monitor violations
   always propagate. *)
(* The scheduler never copies reply bytes out of a slot ring — the
   submitter reads them in place from the ring's reply image — so a
   successful slot reports this preallocated placeholder instead of
   allocating a fresh [Ok] per request. *)
let ok_in_ring : (bytes, string) result = Ok Bytes.empty

let fail_msg = function
  | Urts.Enclave_error m -> "enclave: " ^ m
  | Fault.Injected { site; kind } ->
      Printf.sprintf "injected %s fault at %s" (Fault.kind_name kind) site
  | exn -> Printexc.to_string exn

let run_requests t (job : job) =
  match job.work with
  | Ring ring -> (
      (* The whole ring is one switchless dispatch unit; the job drains
         in a single step either way. *)
      let count = Urts.ring_staged ring in
      job.work <- Calls [];
      let base_index = job.next_index in
      job.next_index <- base_index + count;
      let deliver i result =
        match job.on_result with
        | Some f -> f ~index:(base_index + i) result
        | None -> ()
      in
      match Urts.ring_dispatch ring with
      | () ->
          for i = 0 to count - 1 do
            deliver i ok_in_ring
          done;
          t.completed <- t.completed + count;
          (match job.svc_counter with
          | Some c -> Telemetry.add t.telemetry c count
          | None -> ());
          count
      | exception ((Urts.Enclave_error _ | Fault.Injected _) as exn)
        when t.config.drop_on_error ->
          let msg = fail_msg exn in
          for i = 0 to count - 1 do
            deliver i (Error msg)
          done;
          t.failed <- t.failed + count;
          Telemetry.add t.telemetry "sched.request_failed" count;
          count)
  | Calls [] -> 0
  | Calls ((id, data) :: rest) -> (
      job.work <- Calls rest;
      let index = job.next_index in
      job.next_index <- index + 1;
      let deliver result =
        match job.on_result with Some f -> f ~index result | None -> ()
      in
      match Urts.ecall job.urts ~id ~data ~direction:Edge.In_out () with
      | reply ->
          deliver (Ok reply);
          t.completed <- t.completed + 1;
          (match job.svc_counter with
          | Some c -> Telemetry.incr t.telemetry c
          | None -> ());
          1
      | exception ((Urts.Enclave_error _ | Fault.Injected _) as exn)
        when t.config.drop_on_error ->
          deliver (Error (fail_msg exn));
          t.failed <- t.failed + 1;
          Telemetry.incr t.telemetry "sched.request_failed";
          1)

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
  let finish () = Urts.disarm_timer job.urts in
  (try
     while (not (drained job)) && consumed () < t.config.quantum do
       core.completed <- core.completed + run_requests t job
     done
   with exn ->
     finish ();
     let delta = consumed () in
     Cycles.tick core.clock delta;
     core.busy <- core.busy + delta;
     (match job.on_slice with Some f -> f ~cycles:delta | None -> ());
     raise exn);
  finish ();
  let delta = consumed () in
  Cycles.tick core.clock delta;
  core.busy <- core.busy + delta;
  (match job.on_slice with Some f -> f ~cycles:delta | None -> ());
  Telemetry.observe t.telemetry "sched.slice_cycles" (max 1 delta);
  if not (drained job) then begin
    (* Quantum expired with work left: requeue at the back. *)
    core.preempts <- core.preempts + 1;
    Telemetry.incr t.telemetry "sched.preempt";
    (match t.on_preempt with Some f -> f ~core_id:core.core_id | None -> ());
    core.queue <- core.queue @ [ job ]
  end

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
          preempts = core.preempts;
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
    steals = Array.fold_left (fun acc (c : core) -> acc + c.steals) 0 t.cores;
    preempts = Array.fold_left (fun acc (c : core) -> acc + c.preempts) 0 t.cores;
    aex_preempts = t.aex_preempts;
  }

let core_cycles t i = Cycles.now t.cores.(i).clock
let core_busy t i = t.cores.(i).busy

let run t =
  let has_work (core : core) = core.queue <> [] in
  let any_work () = Array.exists has_work t.cores in
  while any_work () do
    let candidate =
      earliest t (fun core ->
          has_work core || (t.config.work_stealing && any_work ()))
    in
    match candidate with
    | None -> ()
    | Some core -> (
        match core.queue with
        | job :: rest ->
            core.queue <- rest;
            run_slice t core job
        | [] -> (
            match steal t core with
            | Some job -> run_slice t core job
            | None ->
                (* Nothing stealable right now: park this core just past
                   the busiest working core so it stops being the
                   earliest until the queues have moved on. *)
                let horizon =
                  Array.fold_left
                    (fun acc c ->
                      if has_work c then max acc (Cycles.now c.clock) else acc)
                    (Cycles.now core.clock) t.cores
                in
                Cycles.advance_to core.clock ~at:(horizon + 1)))
  done;
  stats t

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "@[<v>%d requests (%d failed), makespan %d cycles, %d steals, %d preempts, %d AEX preempts"
    s.total_requests s.failed_requests s.makespan s.steals s.preempts
    s.aex_preempts;
  Array.iter
    (fun c ->
      Format.fprintf fmt "@,  core %d: clock %d, busy %d, %d done, %d stolen, %d preempted"
        c.core_id c.cycles c.busy c.completed c.steals c.preempts)
    s.per_core;
  Format.fprintf fmt "@]"
