(* Counters, cycle histograms and a trace ring.  Deliberately dependency
   free: recording must be cheap enough to leave on everywhere, and the
   JSON emitter is hand rolled so the monitor build pulls in nothing. *)

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array; (* index i holds samples in [2^(i-1), 2^i), 0 holds 0 *)
}

type event = { seq : int; at : int; name : string; detail : string }

type t = {
  tbl_counters : (string, int ref) Hashtbl.t;
  tbl_histograms : (string, hist) Hashtbl.t;
  ring : event option array;
  mutable next_seq : int;
  mutable epoch : int;  (* bumped by [reset]: every handle re-resolves *)
}

let create ?(ring_capacity = 256) () =
  if ring_capacity <= 0 then invalid_arg "Telemetry.create: ring_capacity";
  {
    tbl_counters = Hashtbl.create 64;
    tbl_histograms = Hashtbl.create 16;
    ring = Array.make ring_capacity None;
    next_seq = 0;
    epoch = 0;
  }

let cell t name =
  match Hashtbl.find t.tbl_counters name with
  | cell -> cell
  | exception Not_found ->
      let cell = ref 0 in
      Hashtbl.replace t.tbl_counters name cell;
      cell

let add t name n =
  if n < 0 then invalid_arg "Telemetry.add: negative increment";
  let c = cell t name in
  c := !c + n

let incr t name = add t name 1

let raise_to t name v =
  if v < 0 then invalid_arg "Telemetry.raise_to: negative value";
  match Hashtbl.find_opt t.tbl_counters name with
  | Some cell -> if v > !cell then cell := v
  | None -> Hashtbl.replace t.tbl_counters name (ref v)

let counter t name =
  match Hashtbl.find_opt t.tbl_counters name with Some cell -> !cell | None -> 0

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let counters_with_prefix t prefix =
  Hashtbl.fold
    (fun name cell acc ->
      if starts_with ~prefix name then (name, !cell) :: acc else acc)
    t.tbl_counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sum_prefix t prefix =
  List.fold_left (fun acc (_, v) -> acc + v) 0 (counters_with_prefix t prefix)

(* Bucket index: 0 for sample 0, otherwise 1 + floor(log2 sample), so
   bucket i >= 1 covers [2^(i-1), 2^i). *)
let bucket_bits = 63

let bucket_index sample =
  if sample <= 0 then 0
  else
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    bits sample 0

let hist t name =
  match Hashtbl.find t.tbl_histograms name with
  | hist -> hist
  | exception Not_found ->
      let hist =
        {
          h_count = 0;
          h_sum = 0;
          h_min = max_int;
          h_max = 0;
          h_buckets = Array.make (bucket_bits + 1) 0;
        }
      in
      Hashtbl.replace t.tbl_histograms name hist;
      hist

let record hist sample =
  let sample = max 0 sample in
  hist.h_count <- hist.h_count + 1;
  hist.h_sum <- hist.h_sum + sample;
  if sample < hist.h_min then hist.h_min <- sample;
  if sample > hist.h_max then hist.h_max <- sample;
  let i = bucket_index sample in
  hist.h_buckets.(i) <- hist.h_buckets.(i) + 1

let observe t name sample = record (hist t name) sample

(* --- handles ------------------------------------------------------------- *)

(* A handle keeps the cell its name resolved to, and the epoch it
   resolved in: the first bump after creation or after a [reset]
   resolves the name again, so a handle creates nothing until bumped and
   never writes into a dropped cell. *)
type 'a handle = {
  tel : t;
  name : string;
  resolve : t -> string -> 'a;
  mutable target : 'a option;
  mutable resolved : int;
}

type counter_handle = int ref handle
type histogram_handle = hist handle

let handle resolve tel name =
  { tel; name; resolve; target = None; resolved = -1 }

let counter_handle tel name = handle cell tel name
let histogram_handle tel name = handle hist tel name

let target h =
  match h.target with
  | Some x when h.resolved = h.tel.epoch -> x
  | Some _ | None ->
      let x = h.resolve h.tel h.name in
      h.target <- Some x;
      h.resolved <- h.tel.epoch;
      x

let bump h n =
  if n < 0 then invalid_arg "Telemetry.bump: negative increment";
  let c = target h in
  c := !c + n

let sample h v = record (target h) v

let trace t ~at ?(detail = "") name =
  let slot = t.next_seq mod Array.length t.ring in
  t.ring.(slot) <- Some { seq = t.next_seq; at; name; detail };
  t.next_seq <- t.next_seq + 1

(* --- snapshots ----------------------------------------------------------- *)

type hist_summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;
}

type snapshot = {
  counters : (string * int) list;
  histograms : (string * hist_summary) list;
  events : event list;
}

let summarize hist =
  let buckets = ref [] in
  for i = bucket_bits downto 0 do
    if hist.h_buckets.(i) > 0 then
      let lo = if i = 0 then 0 else 1 lsl (i - 1) in
      buckets := (lo, hist.h_buckets.(i)) :: !buckets
  done;
  {
    count = hist.h_count;
    sum = hist.h_sum;
    min = (if hist.h_count = 0 then 0 else hist.h_min);
    max = hist.h_max;
    buckets = !buckets;
  }

let sorted_assoc fold table =
  List.sort (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun name v acc -> (name, fold v) :: acc) table [])

let snapshot t =
  let events =
    Array.to_list t.ring
    |> List.filter_map (fun e -> e)
    |> List.sort (fun a b -> compare a.seq b.seq)
  in
  {
    counters = sorted_assoc ( ! ) t.tbl_counters;
    histograms = sorted_assoc summarize t.tbl_histograms;
    events;
  }

let mean summary =
  if summary.count = 0 then 0.0
  else float_of_int summary.sum /. float_of_int summary.count

let delta_counters ~before ~after =
  List.filter_map
    (fun (name, v) ->
      let prior = try List.assoc name before.counters with Not_found -> 0 in
      if v - prior <> 0 then Some (name, v - prior) else None)
    after.counters

(* --- rendering ----------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json snap =
  let buf = Buffer.create 1024 in
  let obj fields emit =
    Buffer.add_char buf '{';
    List.iteri
      (fun i field ->
        if i > 0 then Buffer.add_char buf ',';
        emit field)
      fields;
    Buffer.add_char buf '}'
  in
  Buffer.add_string buf "{\"counters\":";
  obj snap.counters (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (json_escape name) v));
  Buffer.add_string buf ",\"histograms\":";
  obj snap.histograms (fun (name, h) ->
      Buffer.add_string buf
        (Printf.sprintf
           "\"%s\":{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"mean\":%.1f,\"buckets\":[%s]}"
           (json_escape name) h.count h.sum h.min h.max (mean h)
           (String.concat ","
              (List.map
                 (fun (lo, n) -> Printf.sprintf "[%d,%d]" lo n)
                 h.buckets))));
  Buffer.add_string buf ",\"events\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"seq\":%d,\"at\":%d,\"name\":\"%s\",\"detail\":\"%s\"}" e.seq
           e.at (json_escape e.name) (json_escape e.detail)))
    snap.events;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let pp fmt snap =
  Format.fprintf fmt "@[<v>counters:@,";
  List.iter
    (fun (name, v) -> Format.fprintf fmt "  %-32s %12d@," name v)
    snap.counters;
  if snap.histograms <> [] then begin
    Format.fprintf fmt "histograms (cycles):@,";
    Format.fprintf fmt "  %-26s %8s %10s %10s %10s@," "" "count" "mean" "min"
      "max";
    List.iter
      (fun (name, h) ->
        Format.fprintf fmt "  %-26s %8d %10.0f %10d %10d@," name h.count
          (mean h) h.min h.max)
      snap.histograms
  end;
  if snap.events <> [] then begin
    Format.fprintf fmt "recent events:@,";
    List.iter
      (fun e ->
        Format.fprintf fmt "  [%6d] @@%-12d %-18s %s@," e.seq e.at e.name
          e.detail)
      snap.events
  end;
  Format.fprintf fmt "@]"

let reset t =
  t.epoch <- t.epoch + 1;
  Hashtbl.reset t.tbl_counters;
  Hashtbl.reset t.tbl_histograms;
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.next_seq <- 0
