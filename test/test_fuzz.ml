(* Fuzz/property batch: the surfaces that consume untrusted bytes
   (protocol parsers, the quote wire format, the SQL front end, the libOS
   fd layer) must be total — reject garbage, never crash — and the
   encode/parse pairs must be inverses. *)

open Hyperenclave
module W = Hyperenclave.Workloads

let never_crashes name f =
  QCheck.Test.make ~name ~count:300 QCheck.string (fun s ->
      match f s with
      | _ -> true
      | exception exn ->
          QCheck.Test.fail_reportf "input %S raised %s" s
            (Printexc.to_string exn))

(* --- generators ------------------------------------------------------------- *)

let resp_word =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 33 126)) (int_range 1 12))

let resp_command_gen = QCheck.Gen.(list_size (int_range 1 5) resp_word)

(* --- RESP -------------------------------------------------------------------- *)

let resp_roundtrip =
  QCheck.Test.make ~name:"RESP encode/parse inverse" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 6) resp_command_gen))
    (fun commands ->
      let wire =
        Bytes.to_string
          (Bytes.concat Bytes.empty (List.map W.Resp_kv.encode_command commands))
      in
      match W.Resp_kv.parse_pipeline wire with
      | Result.Ok parsed -> parsed = commands
      | Result.Error _ -> false)

let resp_total = never_crashes "RESP parser total on garbage" W.Resp_kv.parse_resp

let resp_prefix_rejected =
  (* Any strict prefix of a valid encoding must be rejected cleanly. *)
  QCheck.Test.make ~name:"RESP truncation rejected" ~count:200
    (QCheck.make resp_command_gen)
    (fun command ->
      let wire = Bytes.to_string (W.Resp_kv.encode_command command) in
      let ok = ref true in
      for len = 1 to String.length wire - 1 do
        match W.Resp_kv.parse_resp (String.sub wire 0 len) with
        | Result.Error _ -> ()
        | Result.Ok parsed -> if parsed = command then ok := false
        | exception _ -> ok := false
      done;
      !ok)

(* --- HTTP -------------------------------------------------------------------- *)

let http_total = never_crashes "HTTP parser total on garbage" W.Httpd.parse_request

let http_valid_requests =
  QCheck.Test.make ~name:"HTTP parser accepts well-formed requests" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 20))
           (list_size (int_range 0 4)
              (pair
                 (string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 8))
                 (string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 8))))))
    (fun (path, headers) ->
      let raw =
        Printf.sprintf "GET /%s HTTP/1.1\n%s" path
          (String.concat ""
             (List.map (fun (k, v) -> Printf.sprintf "%s: %s\n" k v) headers))
      in
      match W.Httpd.parse_request raw with
      | Result.Ok r ->
          r.W.Httpd.meth = "GET"
          && r.W.Httpd.path = "/" ^ path
          && List.length r.W.Httpd.headers = List.length headers
      | Result.Error _ -> false)

(* --- mini-SQL ------------------------------------------------------------------ *)

let sql_total =
  QCheck.Test.make ~name:"SQL engine total on garbage" ~count:300 QCheck.string
    (fun s ->
      let e = W.Kvdb.Engine.create () in
      match W.Kvdb.Engine.exec e s with
      | Result.Ok _ | Result.Error _ -> true
      | exception _ -> false)

let sql_store_consistency =
  QCheck.Test.make ~name:"SQL insert/update/select agree with a model" ~count:80
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 60) (pair (int_bound 20) (int_bound 999))))
    (fun ops ->
      let e = W.Kvdb.Engine.create () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (key, v) ->
          let value = Printf.sprintf "v%d" v in
          let stmt =
            if Hashtbl.mem model key && v mod 2 = 0 then
              Printf.sprintf "UPDATE kv SET v = '%s' WHERE k = %d" value key
            else Printf.sprintf "INSERT INTO kv VALUES (%d, '%s')" key value
          in
          (match W.Kvdb.Engine.exec e stmt with
          | Result.Ok _ -> Hashtbl.replace model key value
          | Result.Error _ -> ());
          match
            ( W.Kvdb.Engine.exec e (Printf.sprintf "SELECT v FROM kv WHERE k = %d" key),
              Hashtbl.find_opt model key )
          with
          | Result.Ok got, Some expected -> got = expected
          | Result.Error _, None -> true
          | Result.Ok _, None | Result.Error _, Some _ -> false)
        ops)

(* The engine's statement path before it scanned in place, kept here as
   the oracle of the scanner: [oracle_tokenize] lists the tokens (a bare
   word lowercased, a string literal as "'" ^ its contents, an
   unterminated string's tail as written) and [oracle_exec] matches the
   list and reads keys with [int_of_string_opt].  It runs on a table of
   its own and returns the result, the token count and whether it
   inserted or updated a row. *)
let oracle_tokenize stmt =
  let buf = Buffer.create 16 in
  let tokens = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  let in_string = ref false in
  String.iter
    (fun c ->
      if !in_string then
        if c = '\'' then begin
          tokens := ("'" ^ Buffer.contents buf) :: !tokens;
          Buffer.clear buf;
          in_string := false
        end
        else Buffer.add_char buf c
      else
        match c with
        | ' ' | '\t' | '\n' | ',' -> flush ()
        | '(' | ')' | '=' -> flush ()
        | '\'' ->
            flush ();
            in_string := true
        | c -> Buffer.add_char buf (Char.lowercase_ascii c))
    stmt;
  flush ();
  List.rev !tokens

let oracle_exec btree stmt =
  let tokens = oracle_tokenize stmt in
  let literal v = Bytes.of_string (String.sub v 1 (String.length v - 1)) in
  let mutated = ref false in
  let result =
    match tokens with
    | [ "insert"; "into"; "kv"; "values"; key; value ]
      when String.length value > 0 && value.[0] = '\'' -> (
        match int_of_string_opt key with
        | Some key ->
            W.Btree.insert btree ~key (literal value);
            mutated := true;
            Result.Ok "ok"
        | None -> Result.Error "bad key")
    | [ "select"; "v"; "from"; "kv"; "where"; "k"; key ] -> (
        match int_of_string_opt key with
        | Some key -> (
            match W.Btree.find btree ~key with
            | Some value -> Result.Ok (Bytes.to_string value)
            | None -> Result.Error "not found")
        | None -> Result.Error "bad key")
    | [ "select"; "v"; "from"; "kv"; "where"; "k"; "between"; lo; "and"; hi ]
      -> (
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi when lo <= hi ->
            let count = min (hi - lo + 1) 1024 in
            let rows =
              W.Btree.scan btree ~lo ~count |> List.filter (fun (k, _) -> k <= hi)
            in
            Result.Ok (Printf.sprintf "%d rows" (List.length rows))
        | _ -> Result.Error "bad range")
    | [ "update"; "kv"; "set"; "v"; value; "where"; "k"; key ]
      when String.length value > 0 && value.[0] = '\'' -> (
        match int_of_string_opt key with
        | Some key ->
            if W.Btree.update btree ~key (literal value) then begin
              mutated := true;
              Result.Ok "ok"
            end
            else Result.Error "not found"
        | None -> Result.Error "bad key")
    | _ -> Result.Error "parse error"
  in
  (result, List.length tokens, !mutated)

let trail btree =
  List.init (W.Btree.touched btree) (fun i ->
      (W.Btree.touched_addr btree i, W.Btree.touched_len btree i))

(* Statements that reach every branch of the grammar and its edges:
   keywords in mixed case, every separator, string literals (empty,
   with blanks, unterminated), and keys spelled every way
   [int_of_string] reads or refuses one; plus fragment soup and the
   garbage of "SQL engine total on garbage". *)
let sql_stmt_gen =
  let open QCheck.Gen in
  let mixed w =
    map
      (fun mask ->
        String.mapi
          (fun i c -> if (mask lsr (i mod 60)) land 1 = 1 then Char.uppercase_ascii c else c)
          w)
      (int_bound max_int)
  in
  let kw w = mixed w in
  let sep = oneofl [ " "; "  "; "\t"; "\n"; ","; "("; ")"; "="; " = "; "\t,(" ] in
  let key =
    oneof
      [
        map string_of_int (int_range (-3) 40);
        mixed "0x1f";
        oneofl
          [
            "1_000"; "-5"; "+7"; "0b101"; "0o17"; "0u42"; "0x"; "-"; "_1"; "1__";
            "1e3"; "007"; "-0"; "0x_1"; "3x";
            "4611686018427387903"; "4611686018427387904";
            "-4611686018427387904"; "-4611686018427387905";
            "0x3fffffffffffffff"; "0x7fffffffffffffff"; "0x8000000000000000";
            "0xffffffffffffffff"; "-0x7fffffffffffffff"; "0u9223372036854775807";
            "0u9223372036854775808"; "0b" ^ String.make 63 '1';
            "0b1" ^ String.make 63 '0'; "99999999999999999999"; "0o777777777777777777777";
          ];
      ]
  in
  let value =
    oneof
      [
        map (fun w -> "'" ^ w ^ "'") (string_size ~gen:(char_range 'a' 'z') (int_range 0 12));
        oneofl [ "''"; "'a b'"; "'x,y=(z)'"; "'It''s'"; "'MiXeD'"; "'tab\there'" ];
      ]
  in
  let unterminated =
    map (fun w -> "'" ^ w) (string_size ~gen:(char_range 'A' 'z') (int_range 0 8))
  in
  let join parts = map (String.concat "") (flatten_l parts) in
  let words ws = List.concat_map (fun w -> [ kw w; sep ]) ws in
  let select_where = words [ "select"; "v"; "from"; "kv"; "where"; "k" ] in
  oneof
    [
      join (words [ "insert"; "into"; "kv"; "values" ] @ [ key; sep; value; sep ]);
      join (select_where @ [ key ]);
      join (select_where @ [ kw "between"; sep; key; sep; kw "and"; sep; key ]);
      join (words [ "update"; "kv"; "set"; "v" ] @ [ value; sep ] @ words [ "where"; "k" ] @ [ key ]);
      join (select_where @ [ unterminated ]);
      join (words [ "update"; "kv"; "set"; "v" ] @ [ unterminated ]);
      map (String.concat "")
        (list_size (int_range 0 14)
           (oneof
              [ kw "select"; kw "insert"; kw "update"; kw "between"; kw "and";
                kw "kv"; kw "v"; kw "k"; sep; key; value; unterminated ]));
      string;
    ]

let sql_scanner_matches_oracle =
  QCheck.Test.make ~name:"SQL scanner = the tokenizer it replaced" ~count:400
    (QCheck.make
       ~print:QCheck.Print.(list string)
       QCheck.Gen.(list_size (int_range 1 25) sql_stmt_gen))
    (fun stmts ->
      let e = W.Kvdb.Engine.create () in
      let table = W.Kvdb.Engine.btree e in
      let oracle =
        W.Btree.create ~addr_base:0x1000_0000 ~record_bytes:W.Kvdb.record_bytes
      in
      let preload =
        List.init 48 (fun k -> Printf.sprintf "INSERT INTO kv VALUES (%d, 'v%d')" (k * 2) k)
      in
      let tokens = ref 0 in
      List.for_all
        (fun stmt ->
          let got = W.Kvdb.Engine.exec e stmt in
          let want, n, mutated = oracle_exec oracle stmt in
          tokens := !tokens + n;
          if got <> want then
            QCheck.Test.fail_reportf "%S: result differs from the oracle's" stmt;
          if W.Kvdb.Engine.tokens_parsed e <> !tokens then
            QCheck.Test.fail_reportf "%S: %d tokens counted, the oracle %d" stmt
              (W.Kvdb.Engine.tokens_parsed e) !tokens;
          if W.Kvdb.Engine.mutated e <> mutated then
            QCheck.Test.fail_reportf "%S: mutation reported wrongly" stmt;
          if trail table <> trail oracle then
            QCheck.Test.fail_reportf "%S: touch trail differs" stmt;
          true)
        (preload @ stmts))

(* --- quote wire format ----------------------------------------------------------- *)

let wire_total =
  QCheck.Test.make ~name:"quote decoder total on garbage" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun s ->
      match Quote_wire.decode (Bytes.of_string s) with
      | Result.Ok _ | Result.Error _ -> true
      | exception _ -> false)

(* --- vCPU SSA frames --------------------------------------------------------------- *)

let vcpu_roundtrip =
  QCheck.Test.make ~name:"vCPU SSA serialize/deserialize inverse" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      (* Arbitrary in-enclave execution state, as an AEX would spill it. *)
      let rng = Rng.create ~seed:(Int64.of_int (77_000 + seed)) in
      let regs = Vcpu.fresh ~entry:0x1000 in
      Vcpu.scramble rng regs;
      let frame = Vcpu.serialize regs in
      if Bytes.length frame <> Vcpu.ssa_frame_bytes then
        QCheck.Test.fail_reportf "frame is %d bytes, expected %d"
          (Bytes.length frame) Vcpu.ssa_frame_bytes
      else
        Vcpu.equal regs (Vcpu.deserialize frame)
        || QCheck.Test.fail_reportf "round-trip lost register state (seed %d)"
             seed)

let vcpu_malformed_rejected =
  QCheck.Test.make ~name:"vCPU malformed SSA frame rejected" ~count:200
    QCheck.(int_bound 400)
    (fun len ->
      if len = Vcpu.ssa_frame_bytes then true
      else
        match Vcpu.deserialize (Bytes.make len '\x7f') with
        | _ -> QCheck.Test.fail_reportf "frame of %d bytes accepted" len
        | exception Invalid_argument _ -> true)

(* --- quote wire format: inverse + truncation --------------------------------------- *)

(* One real platform+enclave shared by the quote properties; the
   generator varies the report data and nonce, which reach every
   length-framed field of the wire format. *)
let quote_fixture =
  lazy
    (let p = Platform.create ~seed:8100L () in
     Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc
       ~rng:p.Platform.rng ~signer:p.Platform.signer
       ~config:(Urts.default_config Sgx_types.GU)
       ~ecalls:[ (1, fun _tenv input -> input) ]
       ~ocalls:[])

let quote_wire_roundtrip =
  QCheck.Test.make ~name:"quote wire encode/decode inverse" ~count:40
    (QCheck.make QCheck.Gen.(string_size (int_range 0 32)))
    (fun rd ->
      let handle = Lazy.force quote_fixture in
      let quote = Urts.gen_quote handle ~report_data:(Bytes.of_string rd) in
      match Quote_wire.decode (Quote_wire.encode quote) with
      | Result.Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
      | Result.Ok decoded ->
          decoded = quote
          || QCheck.Test.fail_reportf
               "decode . encode <> id (report_data=%S)" rd)

let quote_wire_truncation =
  QCheck.Test.make ~name:"quote wire truncation rejected" ~count:10
    QCheck.(int_bound 10_000)
    (fun salt ->
      let handle = Lazy.force quote_fixture in
      let quote =
        Urts.gen_quote handle
          ~report_data:(Bytes.of_string (string_of_int salt))
      in
      let encoded = Quote_wire.encode quote in
      let ok = ref true in
      for len = 0 to Bytes.length encoded - 1 do
        match Quote_wire.decode (Bytes.sub encoded 0 len) with
        | Result.Error _ -> ()
        | Result.Ok _ ->
            Printf.eprintf "prefix of %d/%d bytes accepted\n" len
              (Bytes.length encoded);
            ok := false
        | exception exn ->
            Printf.eprintf "prefix of %d bytes raised %s\n" len
              (Printexc.to_string exn);
            ok := false
      done;
      !ok)

(* --- libOS fd layer ---------------------------------------------------------------- *)

let libos_fd_invariants =
  QCheck.Test.make ~name:"libOS fd table consistent under random op storms"
    ~count:20
    (QCheck.make
       QCheck.Gen.(list_size (int_range 5 40) (pair (int_bound 4) (int_bound 3))))
    (fun ops ->
      let p = Platform.create ~seed:7100L () in
      let outcome = ref true in
      let backend =
        Backend.create p
          {
            (Backend.config (Backend.Hyperenclave Sgx_types.HU)) with
            Backend.handlers =
              [
                ( 1,
                  fun env _ ->
                    let os = Libos.create env in
                    let fds = ref [] in
                    List.iter
                      (fun (op, which) ->
                        match op with
                        | 0 ->
                            let path = Printf.sprintf "/f%d" which in
                            fds := Libos.openf os ~path [ Libos.O_creat; Libos.O_rdwr ] :: !fds
                        | 1 -> (
                            match !fds with
                            | fd :: rest ->
                                Libos.close os fd;
                                fds := rest
                            | [] -> ())
                        | 2 -> (
                            match !fds with
                            | fd :: _ -> ignore (Libos.write os fd (Bytes.of_string "data"))
                            | [] -> ())
                        | 3 -> (
                            match !fds with
                            | fd :: _ ->
                                ignore (Libos.lseek os fd ~pos:0);
                                ignore (Libos.read os fd ~len:2)
                            | [] -> ())
                        | 4 | _ -> (
                            (* double close must raise, not corrupt *)
                            match !fds with
                            | fd :: rest ->
                                Libos.close os fd;
                                fds := rest;
                                (match Libos.close os fd with
                                | () -> outcome := false
                                | exception Libos.Bad_fd _ -> ())
                            | [] -> ()))
                      ops;
                    if Libos.open_fds os <> List.length !fds then outcome := false;
                    Bytes.empty );
              ];
          }
      in
      ignore (backend.Backend.call ~id:1 ~direction:Edge.In ());
      backend.Backend.destroy ();
      !outcome)

(* --- slot ring reply frame: corrupt length words ------------------------------------ *)

(* The reply image comes back from the shared ms region, so its length
   words are attacker-reachable: whatever they hold, [ring_reply_offset]
   and [ring_reply_length] must hand out a slice inside the slot or
   refuse with the typed [Urts.Enclave_error] — never a bare exception or an out-of-bounds
   slice.  One enclave and ring serve every case; each case re-stages
   the ring from scratch. *)
let fuzz_ring =
  lazy
    (let p = Platform.create ~seed:9400L () in
     let handle =
       Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc
         ~rng:p.Platform.rng ~signer:p.Platform.signer
         ~config:(Urts.default_config Sgx_types.GU)
         ~ecalls:[ (1, fun _ input -> input) ]
         ~ocalls:[]
     in
     Urts.create_ring handle ~shard:0 ~shards:1 ~slots:8 ~slot_bytes:64)

let ring_frame_corrupt_length =
  QCheck.Test.make ~name:"ring frame corrupt length word rejected typed"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 8) (string_size (int_range 0 64)))
           (list_size (int_range 1 8)
              (oneof
                 [
                   map Int64.of_int (int_range (-100) 100);
                   map Int64.of_int int;
                   ui64;
                 ]))))
    (fun (payloads, words) ->
      let ring = Lazy.force fuzz_ring in
      Urts.ring_reset ring;
      List.iter
        (fun s ->
          let len = String.length s in
          let off = Urts.ring_stage ring ~ecall_id:1 ~len in
          Bytes.blit_string s 0 (Urts.ring_buf ring) off len)
        payloads;
      Urts.ring_dispatch ring;
      let staged = Urts.ring_staged ring in
      let stride = 16 + Urts.ring_slot_bytes ring in
      let buf = Urts.ring_reply_buf ring in
      List.iteri
        (fun i w ->
          Bytes.set_int64_le buf (8 + ((i mod staged) * stride) + 8) w)
        words;
      List.for_all
        (fun slot ->
          match
            ( Urts.ring_reply_offset ring ~slot,
              Urts.ring_reply_length ring ~slot )
          with
          | off, len ->
              let base = 8 + (slot * stride) + 16 in
              off = base && len >= 0
              && len <= Urts.ring_slot_bytes ring
              && off + len <= Bytes.length buf
          | exception Urts.Enclave_error _ -> true
          | exception exn ->
              QCheck.Test.fail_reportf "slot %d raised %s" slot
                (Printexc.to_string exn))
        (List.init (staged + 2) (fun i -> i - 1)))

(* --- determinism -------------------------------------------------------------------- *)

let platform_cycle_determinism =
  QCheck.Test.make ~name:"identical seeds give identical simulated cycles"
    ~count:10
    QCheck.(int_bound 1000)
    (fun seed ->
      let run () =
        let p = Platform.create ~seed:(Int64.of_int (9000 + seed)) () in
        let handle =
          Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc
            ~rng:p.Platform.rng ~signer:p.Platform.signer
            ~config:(Urts.default_config Sgx_types.GU)
            ~ecalls:[ (1, fun tenv input -> tenv.Tenv.seal input) ]
            ~ocalls:[]
        in
        ignore
          (Urts.ecall handle ~id:1 ~data:(Bytes.of_string "d")
             ~direction:Edge.In_out ());
        let total = Cycles.now p.Platform.clock in
        Urts.destroy handle;
        total
      in
      run () = run ())

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      resp_roundtrip;
      resp_total;
      resp_prefix_rejected;
      http_total;
      http_valid_requests;
      sql_total;
      sql_store_consistency;
      sql_scanner_matches_oracle;
      wire_total;
      vcpu_roundtrip;
      vcpu_malformed_rejected;
      quote_wire_roundtrip;
      quote_wire_truncation;
      ring_frame_corrupt_length;
      libos_fd_invariants;
      platform_cycle_determinism;
    ]
