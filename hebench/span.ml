(* Spans around calls into the system's public API, recorded from the
   benchmark's side of the boundary.

   A span carries its name, host start and end, parent span, round id,
   request id (or -1), simulated cycles on the workload's clock reader
   and minor words allocated.  When tracing is off, [enter] returns a
   shared dummy and [leave] ignores it, so the untraced path allocates
   nothing here.  Per-name totals (count, self time, self words, cycles)
   are folded at [leave]; whole root spans (rounds) are also kept for the
   Chrome trace-event export until about [keep] spans are held. *)

type t = {
  id : int;
  name : string;
  parent : int;
  round : int;
  req : int;
  t0 : float;  (** host µs *)
  c0 : int;
  w0 : float;
  mutable t1 : float;
  mutable cyc : int;
  mutable words : float;
  mutable child_us : float;
  mutable child_words : float;
}

type total = {
  mutable count : int;
  mutable self_us : float;
  mutable self_words : float;
  mutable cycles : int;
}

let now_us () = Unix.gettimeofday () *. 1e6

let dummy =
  {
    id = -1;
    name = "";
    parent = -1;
    round = -1;
    req = -1;
    t0 = 0.;
    c0 = 0;
    w0 = 0.;
    t1 = 0.;
    cyc = 0;
    words = 0.;
    child_us = 0.;
    child_words = 0.;
  }

let enabled = ref false
let cycles : (unit -> int) ref = ref (fun () -> 0)
let round = ref 0
let next_id = ref 0
let stack : t list ref = ref []
let kept : t list ref = ref []
let kept_n = ref 0
let keeping = ref true
let keep = 20_000
let totals : (string, total) Hashtbl.t = Hashtbl.create 16

let reset () =
  next_id := 0;
  stack := [];
  kept := [];
  kept_n := 0;
  keeping := true;
  Hashtbl.reset totals

let enter ?(req = -1) name =
  if not !enabled then dummy
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    if parent < 0 && !kept_n >= keep then keeping := false;
    let s =
      {
        id = !next_id;
        name;
        parent;
        round = !round;
        req;
        t0 = now_us ();
        c0 = !cycles ();
        w0 = Gc.minor_words ();
        t1 = 0.;
        cyc = 0;
        words = 0.;
        child_us = 0.;
        child_words = 0.;
      }
    in
    incr next_id;
    stack := s :: !stack;
    s
  end

let leave s =
  if s != dummy then begin
    s.t1 <- now_us ();
    s.cyc <- !cycles () - s.c0;
    s.words <- Gc.minor_words () -. s.w0;
    (match !stack with
    | _ :: rest -> stack := rest
    | [] -> ());
    (match !stack with
    | p :: _ ->
        p.child_us <- p.child_us +. (s.t1 -. s.t0);
        p.child_words <- p.child_words +. s.words
    | [] -> ());
    let tot =
      match Hashtbl.find_opt totals s.name with
      | Some tot -> tot
      | None ->
          let tot = { count = 0; self_us = 0.; self_words = 0.; cycles = 0 } in
          Hashtbl.replace totals s.name tot;
          tot
    in
    tot.count <- tot.count + 1;
    tot.self_us <- tot.self_us +. (s.t1 -. s.t0 -. s.child_us);
    tot.self_words <- tot.self_words +. (s.words -. s.child_words);
    tot.cycles <- tot.cycles + s.cyc;
    if !keeping then begin
      kept := s :: !kept;
      incr kept_n
    end
  end

let total name =
  match Hashtbl.find_opt totals name with
  | Some t -> t
  | None -> { count = 0; self_us = 0.; self_words = 0.; cycles = 0 }

(* Chrome trace-event JSON ("X" complete events), loadable in
   chrome://tracing or Perfetto.  Timestamps are rebased to the first
   kept span. *)
let write_chrome path =
  let spans = List.rev !kept in
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"cat\":\"hebench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"round\":%d,\"req\":%d,\"cycles\":%d,\"minor_words\":%.0f,\"self_us\":%.3f}}\n"
        (if i = 0 then "" else ",")
        s.name (s.t0 -. base) (s.t1 -. s.t0) s.id s.parent s.round s.req s.cyc
        s.words
        (s.t1 -. s.t0 -. s.child_us))
    spans;
  output_string oc "]}\n";
  close_out oc
