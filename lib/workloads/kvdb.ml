open Hyperenclave_hw
open Hyperenclave_tee

let record_bytes = 1024
let stored_bytes = 32 (* actual payload kept in OCaml memory; addresses
                         and charges still span full 1 KB records *)

let ecall_load = 200
let ecall_run = 201

(* --- mini-SQL engine --------------------------------------------------------- *)

module Engine = struct
  (* A statement is scanned in place: each token is a [start; stop; kind]
     triple of offsets into the statement, kept in an array the engine
     reuses, so a statement allocates only what it stores or returns.
     Kinds: a bare word (matched in any case), a quoted string (its
     contents, verbatim) and the tail of an unterminated string (a word
     matched verbatim). *)
  let bare = 0
  let quoted = 1
  let tail = 2

  type t = {
    btree : Btree.t;
    mutable tokens_parsed : int;
    mutable mutated : bool;
    mutable stmt : string;
    mutable toks : int array;
    mutable ntoks : int;
  }

  exception Bad_int

  let create () =
    {
      btree = Btree.create ~addr_base:0x1000_0000 ~record_bytes;
      tokens_parsed = 0;
      mutated = false;
      stmt = "";
      toks = Array.make 48 0;
      ntoks = 0;
    }

  let push t start stop kind =
    let i = 3 * t.ntoks in
    if i + 3 > Array.length t.toks then begin
      let toks = Array.make (2 * Array.length t.toks) 0 in
      Array.blit t.toks 0 toks 0 i;
      t.toks <- toks
    end;
    t.toks.(i) <- start;
    t.toks.(i + 1) <- stop;
    t.toks.(i + 2) <- kind;
    t.ntoks <- t.ntoks + 1

  (* Blanks and [,()=] end a bare word; a quote ends it too and opens a
     string, which the next quote closes (its contents may be empty); an
     unterminated string's non-empty tail is a token of its own. *)
  let scan t stmt =
    t.stmt <- stmt;
    t.ntoks <- 0;
    let start = ref 0 and in_string = ref false in
    for i = 0 to String.length stmt - 1 do
      match String.unsafe_get stmt i with
      | '\'' when !in_string ->
          push t !start i quoted;
          in_string := false;
          start := i + 1
      | _ when !in_string -> ()
      | ' ' | '\t' | '\n' | ',' | '(' | ')' | '=' ->
          if i > !start then push t !start i bare;
          start := i + 1
      | '\'' ->
          if i > !start then push t !start i bare;
          in_string := true;
          start := i + 1
      | _ -> ()
    done;
    let n = String.length stmt in
    if n > !start then push t !start n (if !in_string then tail else bare)

  let kind t i = t.toks.((3 * i) + 2)

  let rec same s pos w j ~fold =
    j = String.length w
    || (let c = String.unsafe_get s (pos + j) in
        (if fold then Char.lowercase_ascii c else c) = String.unsafe_get w j)
       && same s pos w (j + 1) ~fold

  (* Token [i] is the keyword [w] (lowercase). *)
  let word t i w =
    let start = t.toks.(3 * i) in
    t.toks.((3 * i) + 1) - start = String.length w
    && kind t i <> quoted
    && same t.stmt start w 0 ~fold:(kind t i = bare)

  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> -1

  (* Token [i] read as [int_of_string] reads it (a quoted string never
     is one), in place: an optional sign, an optional 0x/0o/0b/0u prefix,
     then digits with underscores after the first.  Without a prefix the
     value must fit an int; with one, 63 bits, and it wraps.
     @raise Bad_int otherwise. *)
  let int_at t i =
    if kind t i = quoted then raise Bad_int;
    let s = t.stmt and stop = t.toks.((3 * i) + 1) in
    let p = ref t.toks.(3 * i) in
    let neg = !p < stop && s.[!p] = '-' in
    if !p < stop && (s.[!p] = '-' || s.[!p] = '+') then incr p;
    let prefix =
      if !p + 1 < stop && s.[!p] = '0' then
        match s.[!p + 1] with
        | 'x' | 'X' -> 16
        | 'o' | 'O' -> 8
        | 'b' | 'B' -> 2
        | 'u' | 'U' -> 10
        | _ -> 0
      else 0
    in
    if prefix > 0 then p := !p + 2;
    let base = if prefix > 0 then prefix else 10 in
    (* The largest magnitude is [cutoff * base + last]: max_int for a
       positive decimal, max_int + 1 for a negative one, 2^63 - 1 with a
       prefix (a wrapped [res] is negative: no digit may follow it). *)
    let r =
      if prefix = 0 then (max_int mod base) + if neg then 1 else 0
      else (2 * (max_int mod base)) + 1
    in
    let q = if prefix = 0 then max_int / base else 2 * (max_int / base) in
    let cutoff = q + (r / base) and last = r mod base in
    let res = ref 0 and digits = ref 0 in
    while !p < stop do
      let c = s.[!p] in
      if c <> '_' || !digits = 0 then begin
        let d = digit c in
        if d < 0 || d >= base then raise Bad_int;
        if !res < 0 || !res > cutoff || (!res = cutoff && d > last) then
          raise Bad_int;
        res := (!res * base) + d;
        incr digits
      end;
      incr p
    done;
    if !digits = 0 then raise Bad_int;
    if neg then - !res else !res

  (* A fresh copy of quoted token [i]'s contents: the stored value. *)
  let contents t i =
    let start = t.toks.(3 * i) in
    let len = t.toks.((3 * i) + 1) - start in
    let v = Bytes.create len in
    Bytes.blit_string t.stmt start v 0 len;
    v

  let select_k t =
    word t 0 "select" && word t 1 "v" && word t 2 "from" && word t 3 "kv"
    && word t 4 "where" && word t 5 "k"

  let exec t stmt =
    scan t stmt;
    t.tokens_parsed <- t.tokens_parsed + t.ntoks;
    t.mutated <- false;
    match t.ntoks with
    | 6
      when word t 0 "insert" && word t 1 "into" && word t 2 "kv"
           && word t 3 "values" && kind t 5 = quoted -> (
        match int_at t 4 with
        | key ->
            Btree.insert t.btree ~key (contents t 5);
            t.mutated <- true;
            Result.Ok "ok"
        | exception Bad_int -> Result.Error "bad key")
    | 7 when select_k t -> (
        match int_at t 6 with
        | key -> (
            match Btree.find t.btree ~key with
            | Some value -> Result.Ok (Bytes.to_string value)
            | None -> Result.Error "not found")
        | exception Bad_int -> Result.Error "bad key")
    | 10 when select_k t && word t 6 "between" && word t 8 "and" -> (
        match (int_at t 7, int_at t 9) with
        | lo, hi when lo <= hi ->
            (* Range scans are bounded like SQLite's LIMIT would: the
               engine never visits more than 1024 rows. *)
            let count = min (hi - lo + 1) 1024 in
            let rows = Btree.count_range t.btree ~lo ~hi ~count in
            Result.Ok (string_of_int rows ^ " rows")
        | _ | (exception Bad_int) -> Result.Error "bad range")
    | 8
      when word t 0 "update" && word t 1 "kv" && word t 2 "set"
           && word t 3 "v" && kind t 4 = quoted && word t 5 "where"
           && word t 6 "k" -> (
        match int_at t 7 with
        | key ->
            if Btree.update t.btree ~key (contents t 4) then begin
              t.mutated <- true;
              Result.Ok "ok"
            end
            else Result.Error "not found"
        | exception Bad_int -> Result.Error "bad key")
    | _ -> Result.Error "parse error"

  let btree t = t.btree
  let tokens_parsed t = t.tokens_parsed
  let mutated t = t.mutated
end

(* --- enclave workload --------------------------------------------------------- *)

(* SQLite does far more per statement than our mini engine: bytecode
   compilation, VDBE dispatch, pager bookkeeping.  This constant stands in
   for that fixed per-statement CPU work. *)
let sql_fixed_cost = 22_000
let sql_per_token = 90

(* Per-statement allocator/pager scatter: SQLite touches lookaside slots,
   page-cache headers and VDBE registers spread over its heap.  The heap
   is its own region, far smaller than the record store. *)
let heap_scatter_bytes = 16 * 1024 * 1024
let heap_scatter_count = 6

let charge_engine (env : Backend.env) engine =
  let tokens = engine.Engine.tokens_parsed in
  engine.Engine.tokens_parsed <- 0;
  env.Backend.compute (sql_fixed_cost + (tokens * sql_per_token));
  Mem_sim.random_access env.Backend.mem ~base:0x7000_0000
    ~working_set:heap_scatter_bytes ~count:heap_scatter_count ~write:false;
  (* B-tree descent and the record itself are dependent loads. *)
  let bt = Engine.btree engine in
  for i = 0 to Btree.touched bt - 1 do
    Mem_sim.touch_dependent env.Backend.mem ~addr:(Btree.touched_addr bt i)
      ~len:(Btree.touched_len bt i) ~write:false
  done

let value_literal key = Bytes.to_string (Ycsb.record_value ~key ~size:stored_bytes)

let stmt_of_op operation =
  match operation with
  | Ycsb.Read key -> Printf.sprintf "SELECT v FROM kv WHERE k = %d" key
  | Ycsb.Update key ->
      Printf.sprintf "UPDATE kv SET v = '%s' WHERE k = %d" (value_literal key)
        key
  | Ycsb.Scan (key, n) ->
      Printf.sprintf "SELECT v FROM kv WHERE k BETWEEN %d AND %d" key
        (key + n - 1)

let parse_two tag input =
  match String.split_on_char ':' (Bytes.to_string input) with
  | [ t; a; b ] when t = tag -> (int_of_string a, int_of_string b)
  | _ -> invalid_arg ("Kvdb: bad request for " ^ tag)

let handlers () =
  let engine = ref None in
  let get_engine () =
    match !engine with
    | Some e -> e
    | None -> invalid_arg "Kvdb: database not loaded"
  in
  let load_handler (env : Backend.env) input =
    let records, seed = parse_two "load" input in
    let e = Engine.create () in
    engine := Some e;
    let timer = Timer.create env in
    for key = 0 to records - 1 do
      (match
         Engine.exec e
           (Printf.sprintf "INSERT INTO kv VALUES (%d, '%s')" key
              (value_literal key))
       with
      | Result.Ok _ -> ()
      | Result.Error m -> failwith m);
      charge_engine env e;
      Timer.check timer env
    done;
    ignore seed;
    Bytes.of_string (string_of_int (Btree.size (Engine.btree e)))
  in
  let run_handler (env : Backend.env) input =
    let records, ops = parse_two "run" input in
    let e = get_engine () in
    let gen =
      Ycsb.create ~rng:(Rng.create ~seed:(Int64.of_int (records + 7))) ~records ()
    in
    let timer = Timer.create env in
    let errors = ref 0 in
    for _ = 1 to ops do
      let stmt = stmt_of_op (Ycsb.next_op_a gen) in
      (match Engine.exec e stmt with
      | Result.Ok _ -> ()
      | Result.Error _ -> incr errors);
      charge_engine env e;
      Timer.check timer env
    done;
    if !errors > 0 then failwith (Printf.sprintf "Kvdb: %d failed ops" !errors);
    Bytes.of_string (string_of_int ops)
  in
  [ (ecall_load, load_handler); (ecall_run, run_handler) ]

let call_int (backend : Backend.t) ~id ~request =
  let _, cycles =
    Cycles.time backend.Backend.clock (fun () ->
        backend.Backend.call ~id ~data:(Bytes.of_string request)
          ~direction:Hyperenclave_sdk.Edge.In ())
  in
  cycles

let load backend ~records =
  call_int backend ~id:ecall_load ~request:(Printf.sprintf "load:%d:1" records)

let run_ops backend ~records ~ops =
  call_int backend ~id:ecall_run ~request:(Printf.sprintf "run:%d:%d" records ops)

let throughput_kops ~cycles ~ops =
  float_of_int ops /. (float_of_int cycles /. 2.2e9) /. 1000.0
