(* Accumulators for one measured phase: sample buffers, the per-round
   critical-path ledger of a serving plane, and the phase totals the
   end-to-end metrics are computed from. *)

open Hyperenclave

let clock_hz = 2.2e9 (* the paper's 2.2 GHz EPYC, as in bench/ *)

(* --- samples ------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  (* Nearest-rank percentile, [p] in (0, 1]. *)
  let percentile t p =
    if t.n = 0 then 0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
      s.(max 0 (min (t.n - 1) (rank - 1)))
    end
end

let median_float = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- the plane ledger ------------------------------------------------------

   One plane round is a submit phase followed by one [Serve.flush].  On
   the plane's platform clock the round costs [submit_cyc + flush_cyc].
   The scheduler charges every slice's platform-clock delta to one core,
   so [busy_cyc] (the summed per-core busy advance) is the part of the
   flush that ran on cores; the rest of the round is serial plane work
   no core clock sees.  Cores run in parallel, so the round's critical
   path is the serial part plus the slowest core's clock advance.  A core
   clock also advances outside slices (a thief's steal penalty), which
   the platform clock never sees, so the critical path is bounded by the
   platform delta plus that off-slice advance. *)

type round = {
  submit_cyc : int;
  flush_cyc : int;
  busy_cyc : int;
  serial_cyc : int;
  slowest_cyc : int;
  off_slice_cyc : int;
      (** core-clock advance outside slices, summed over cores: steal
          penalties and idle parking, charged to core clocks only *)
  mean_adv : float;  (** mean per-core clock advance *)
  crit_cyc : int;
  requests : int;  (** requests admitted in the submit phase *)
}

type ledger = {
  mutable l_rounds : int;
  mutable l_requests : int;
  mutable l_submit : int;
  mutable l_flush : int;
  mutable l_busy : int;
  mutable l_serial : int;
  mutable l_slowest : int;
  mutable l_mean_adv : float;
  mutable l_crit : int;
}

let ledger () =
  {
    l_rounds = 0;
    l_requests = 0;
    l_submit = 0;
    l_flush = 0;
    l_busy = 0;
    l_serial = 0;
    l_slowest = 0;
    l_mean_adv = 0.;
    l_crit = 0;
  }

(* Called with every plane round; the ledger identity test installs a
   checker here. *)
let on_round : (round -> unit) ref = ref ignore

let record l r =
  l.l_rounds <- l.l_rounds + 1;
  l.l_requests <- l.l_requests + r.requests;
  l.l_submit <- l.l_submit + r.submit_cyc;
  l.l_flush <- l.l_flush + r.flush_cyc;
  l.l_busy <- l.l_busy + r.busy_cyc;
  l.l_serial <- l.l_serial + r.serial_cyc;
  l.l_slowest <- l.l_slowest + r.slowest_cyc;
  l.l_mean_adv <- l.l_mean_adv +. r.mean_adv;
  l.l_crit <- l.l_crit + r.crit_cyc;
  !on_round r

(* Run [submit] (which returns the number of requests it admitted), then
   flush [plane ()] — resolved after the submit phase, which may have
   chased a session to another node — and account the round on [clock],
   the platform clock reader (summed over nodes in a cluster). *)
let plane_round l ~clock ~plane submit =
  let p0 = clock () in
  let requests = submit () in
  let p1 = clock () in
  let plane = plane () in
  let s1 = Serve.sched_stats plane in
  let sp = Span.enter "serve.flush" in
  let replies = Serve.flush plane in
  Span.leave sp;
  let p2 = clock () in
  let s2 = Serve.sched_stats plane in
  let busy = ref 0 and slowest = ref 0 and adv_sum = ref 0 in
  Array.iteri
    (fun k (c2 : Sched.core_stats) ->
      let c1 = s1.Sched.per_core.(k) in
      busy := !busy + (c2.Sched.busy - c1.Sched.busy);
      let adv = c2.Sched.cycles - c1.Sched.cycles in
      adv_sum := !adv_sum + adv;
      if adv > !slowest then slowest := adv)
    s2.Sched.per_core;
  let submit_cyc = p1 - p0 and flush_cyc = p2 - p1 in
  let serial = submit_cyc + flush_cyc - !busy in
  let r =
    {
      submit_cyc;
      flush_cyc;
      busy_cyc = !busy;
      serial_cyc = serial;
      slowest_cyc = !slowest;
      off_slice_cyc = !adv_sum - !busy;
      mean_adv =
        float_of_int !adv_sum /. float_of_int (max 1 (Array.length s2.Sched.per_core));
      crit_cyc = serial + !slowest;
      requests;
    }
  in
  record l r;
  (replies, r)

(* --- phase totals ---------------------------------------------------------- *)

type phase = {
  mutable rounds : int;
  mutable attempted : int;  (** operations: requests, connects, migrations *)
  mutable failed : int;  (** failed, rejected or wrong-reply operations *)
  mutable served : int;  (** requests answered correctly *)
  mutable crit : int;  (** Σ simulated critical-path cycles *)
  lat : Samples.t;  (** per-request latency, cycles *)
  connect : Samples.t;
  migrate : Samples.t;
  mutable host : (int * float * int) list;
      (** per round, newest first: round index, host µs, requests served *)
  mutable words : float;  (** minor words over the timed rounds *)
  led : ledger;
  mutable in_digest : int;
  mutable out_digest : int;
  rejects : (string, int) Hashtbl.t;
}

let phase () =
  {
    rounds = 0;
    attempted = 0;
    failed = 0;
    served = 0;
    crit = 0;
    lat = Samples.create ();
    connect = Samples.create ();
    migrate = Samples.create ();
    host = [];
    words = 0.;
    led = ledger ();
    in_digest = 0;
    out_digest = 0;
    rejects = Hashtbl.create 8;
  }

let mix d x = ((d * 31) + x) land max_int
let digest_in ph b = ph.in_digest <- mix ph.in_digest (Hashtbl.hash b)
let digest_out ph b = ph.out_digest <- mix ph.out_digest (Hashtbl.hash b)

(* A failed operation misses every latency limit: its latency sample is
   [max_int]. *)
let fail ph ?(latency = true) reason =
  ph.failed <- ph.failed + 1;
  if latency then Samples.add ph.lat max_int;
  Hashtbl.replace ph.rejects reason
    (1 + Option.value ~default:0 (Hashtbl.find_opt ph.rejects reason))

(* Host µs per served request of each round. *)
let per_request host =
  List.filter_map
    (fun (_, us, served) -> if served > 0 then Some (us /. float_of_int served) else None)
    host

let attested_rps ph =
  float_of_int ph.served *. clock_hz /. float_of_int (max 1 ph.crit)
