(* Privacy-preserving key-value service — the FinTech-style workload the
   paper's deployment motivates (Sec. 1: "deployed the system in a
   world-leading FinTech company to support real-world privacy-preserving
   computations").

   A client's records are processed only inside the enclave.  The state
   is sealed to the enclave identity between runs, so even the operator
   holding the disk sees ciphertext; a restarted enclave with the same
   MRENCLAVE recovers it, a different enclave cannot.

   Run with: dune exec examples/private_kv.exe *)

open Hyperenclave

(* Protocol: ECALL 1 "put k=v", ECALL 2 "get k", ECALL 3 "export" (returns
   the sealed store), ECALL 4 "import" (loads a sealed store). *)
let service () =
  let store : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let encode () =
    String.concat "\n"
      (Hashtbl.fold (fun k v acc -> (k ^ "=" ^ v) :: acc) store [])
  in
  let decode s =
    Hashtbl.reset store;
    List.iter
      (fun line ->
        match String.index_opt line '=' with
        | Some i ->
            Hashtbl.replace store
              (String.sub line 0 i)
              (String.sub line (i + 1) (String.length line - i - 1))
        | None -> ())
      (String.split_on_char '\n' s)
  in
  [
    ( 1,
      fun (tenv : Tenv.t) input ->
        tenv.Tenv.compute 2_000;
        (match String.index_opt (Bytes.to_string input) '=' with
        | Some i ->
            let s = Bytes.to_string input in
            Hashtbl.replace store (String.sub s 0 i)
              (String.sub s (i + 1) (String.length s - i - 1))
        | None -> failwith "bad put");
        Bytes.of_string "ok" );
    ( 2,
      fun (tenv : Tenv.t) key ->
        tenv.Tenv.compute 1_000;
        match Hashtbl.find_opt store (Bytes.to_string key) with
        | Some v -> Bytes.of_string v
        | None -> Bytes.of_string "<absent>" );
    (3, fun (tenv : Tenv.t) _ -> tenv.Tenv.seal (Bytes.of_string (encode ())));
    ( 4,
      fun (tenv : Tenv.t) blob ->
        decode (Bytes.to_string (tenv.Tenv.unseal blob));
        Bytes.of_string (string_of_int (Hashtbl.length store)) );
  ]

let make_enclave p ~code_seed =
  Urts.create ~kmod:p.Platform.kmod ~proc:p.Platform.proc ~rng:p.Platform.rng
    ~signer:p.Platform.signer
    ~config:{ (Urts.default_config Sgx_types.GU) with Urts.code_seed }
    ~ecalls:(service ()) ~ocalls:[]

let call enclave id data =
  Bytes.to_string
    (Urts.ecall enclave ~id ~data:(Bytes.of_string data) ~direction:Edge.In_out ())

let () =
  let p = Platform.create ~seed:21L () in
  let service_v1 = make_enclave p ~code_seed:"private-kv-v1" in
  Printf.printf "service enclave: %s\n"
    (Sha256.to_hex (Urts.mrenclave service_v1));

  (* Client session: sensitive records go in, an answer comes out. *)
  ignore (call service_v1 1 "alice.balance=1200");
  ignore (call service_v1 1 "bob.balance=7400");
  Printf.printf "get alice.balance -> %s\n" (call service_v1 2 "alice.balance");

  (* Operator persists the sealed state; it is ciphertext to them. *)
  let sealed =
    Urts.ecall service_v1 ~id:3 ~direction:Edge.Out ()
  in
  Kernel.disk_store p.Platform.kernel ~key:"kv.sealed" sealed;
  Printf.printf "sealed store: %d bytes on untrusted disk\n" (Bytes.length sealed);
  Urts.destroy service_v1;

  (* Service restarts (same code identity): state comes back. *)
  let service_again = make_enclave p ~code_seed:"private-kv-v1" in
  let blob = Option.get (Kernel.disk_load p.Platform.kernel ~key:"kv.sealed") in
  let n =
    Bytes.to_string
      (Urts.ecall service_again ~id:4 ~data:blob ~direction:Edge.In_out ())
  in
  Printf.printf "restarted service imported %s records; bob.balance -> %s\n" n
    (call service_again 2 "bob.balance");
  Urts.destroy service_again;

  (* A different (e.g. trojaned) build cannot unseal the customer data. *)
  let impostor = make_enclave p ~code_seed:"private-kv-TROJAN" in
  (match Urts.ecall impostor ~id:4 ~data:blob ~direction:Edge.In_out () with
  | _ ->
      print_endline "BUG: impostor read the data!";
      exit 1
  | exception _ -> print_endline "impostor enclave failed to unseal (as it must)");
  Urts.destroy impostor;
  print_endline "private_kv done."
