open Hyperenclave_hw
open Hyperenclave_tee
module Serve = Hyperenclave_serve.Serve
module Verifier = Hyperenclave_attestation.Verifier
module Sigma = Hyperenclave_attestation.Sigma
module Invariants = Hyperenclave_monitor.Invariants
module Monitor = Hyperenclave_monitor.Monitor
module World_switch = Hyperenclave_monitor.World_switch
module Tpm = Hyperenclave_tpm.Tpm
module Kx = Hyperenclave_crypto.Kx
module Authenc = Hyperenclave_crypto.Authenc
module Sha256 = Hyperenclave_crypto.Sha256
module Signature = Hyperenclave_crypto.Signature
module Fault = Hyperenclave_fault.Fault

type error =
  | Reject of Serve.reject
  | Attest_failed of Verifier.failure
  | Binding_mismatch
  | Unknown_offer
  | Transport_auth
  | Blob_malformed of string
  | Net_partition
  | Node_down of int
  | Migration_fault of string

let pp_error fmt = function
  | Reject r -> Format.fprintf fmt "plane reject: %a" Serve.pp_reject r
  | Attest_failed f ->
      Format.fprintf fmt "peer attestation failed: %a" Verifier.pp_failure f
  | Binding_mismatch ->
      Format.pp_print_string fmt
        "quote or key share does not bind this tenant / route / nonce"
  | Unknown_offer ->
      Format.pp_print_string fmt "no pending migration offer for this nonce"
  | Transport_auth ->
      Format.pp_print_string fmt "sealed migration blob failed authentication"
  | Blob_malformed m -> Format.fprintf fmt "malformed migration blob: %s" m
  | Net_partition ->
      Format.pp_print_string fmt "network dropped the message past retries"
  | Node_down n -> Format.fprintf fmt "node %d is down" n
  | Migration_fault m -> Format.fprintf fmt "migration fault: %s" m

type anchor = {
  a_golden : Verifier.golden;
  a_hapk : Signature.public_key;
  a_quoting : bytes;
}

type node = {
  n_id : int;
  n_platform : Platform.t;
  n_config : Serve.Node_config.t;
  mutable n_plane : Serve.t option;  (* None = powered off *)
  mutable n_next_session : int;
      (* the session-id counter of the node's last plane torn down: its
         next plane continues from it *)
  mutable n_version : int;
  n_anchor : anchor;
}

module Node = struct
  type t = node

  let id n = n.n_id
  let platform n = n.n_platform

  let plane n =
    match n.n_plane with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Cluster: node %d is down" n.n_id)

  let alive n = n.n_plane <> None
  let version n = n.n_version
end

type config = {
  nodes : int;
  seed : int64;
  serve : Serve.config;
  net : Netsim.config;
  vnodes : int;
}

let default_config =
  {
    nodes = 4;
    seed = 42L;
    serve = Serve.default_config;
    net = Netsim.default_config;
    vnodes = 16;
  }

(* Network retries per protocol message before a drop is a partition. *)
let message_retries = 3

type t = {
  c_config : config;
  c_nodes : node array;
  c_net : Netsim.t;
  c_wire_clock : Cycles.t;
  c_rng : Rng.t;
  c_registry : (string, unit -> Backend.config) Hashtbl.t;
  c_placement : (string, int) Hashtbl.t;
  c_offers : (string, Kx.secret) Hashtbl.t;
      (* "(dst):(tenant):(nonce hex)" -> the destination's pending
         ephemeral secret; burnt on install so each offer admits exactly
         one blob *)
  mutable c_migrations : int;
  mutable c_migration_cycles : int;
  mutable c_max_pause : int;
  mutable c_destroyed : bool;
}

let fault_site = "cluster.migrate"

let mk_node ~node_id ~serve platform =
  let nc = Serve.Node_config.v ~node_id ~platform serve in
  let plane = Serve.create_node ~platform nc in
  let anchor =
    {
      a_golden =
        Verifier.golden_of_boot_log
          ~ek_public:(Tpm.ek_public platform.Platform.tpm)
          (Monitor.boot_log platform.Platform.monitor);
      a_hapk = (Serve.identity plane).Serve.hapk;
      a_quoting = Serve.quoting_identity plane;
    }
  in
  {
    n_id = node_id;
    n_platform = platform;
    n_config = nc;
    n_plane = Some plane;
    n_next_session = 0;
    n_version = 0;
    n_anchor = anchor;
  }

let create config =
  if config.nodes <= 0 then
    invalid_arg "Cluster.create: nodes must be positive";
  if config.vnodes <= 0 then
    invalid_arg "Cluster.create: vnodes must be positive";
  let platforms =
    List.init config.nodes (fun i ->
        (* Distinct derived seeds: every node gets its own TPM state,
           K_root and therefore hapk — siblings are honestly booted but
           cryptographically distinct machines. *)
        Platform.create
          ~seed:(Int64.add config.seed (Int64.of_int (0x9E3779B1 * (i + 1))))
          ())
  in
  let nodes =
    Array.of_list
      (List.mapi
         (fun i platform -> mk_node ~node_id:i ~serve:config.serve platform)
         platforms)
  in
  let net_clock = Cycles.create () in
  {
    c_config = config;
    c_nodes = nodes;
    c_net =
      Netsim.create ~clock:net_clock
        ~seed:(Int64.add config.seed 0xC0FFEEL)
        ~nodes:config.nodes config.net;
    c_wire_clock = net_clock;
    c_rng = Rng.create ~seed:(Int64.add config.seed 0x5EED5L);
    c_registry = Hashtbl.create 8;
    c_placement = Hashtbl.create 8;
    c_offers = Hashtbl.create 8;
    c_migrations = 0;
    c_migration_cycles = 0;
    c_max_pause = 0;
    c_destroyed = false;
  }

let node t i =
  if i < 0 || i >= Array.length t.c_nodes then
    invalid_arg (Printf.sprintf "Cluster.node: no node %d" i);
  t.c_nodes.(i)

let nodes t = Array.to_list t.c_nodes
let plane t i = Node.plane (node t i)
let net t = t.c_net
let anchor t i = (node t i).n_anchor

(* ---------------------------------------------------------------------- *)
(* Consistent-hash placement                                              *)

let hash_point s =
  let d = Sha256.digest_string s in
  Int64.to_int (Bytes.get_int64_le d 0) land max_int

let ring_owner t name =
  let points = ref [] in
  Array.iter
    (fun n ->
      if Node.alive n then
        for v = 0 to t.c_config.vnodes - 1 do
          points :=
            (hash_point (Printf.sprintf "node:%d:%d" n.n_id v), n.n_id)
            :: !points
        done)
    t.c_nodes;
  match List.sort compare !points with
  | [] -> None
  | sorted ->
      let h = hash_point ("tenant:" ^ name) in
      let rec succ = function
        | [] -> Some (snd (List.hd sorted)) (* wrap *)
        | (p, id) :: rest -> if p >= h then Some id else succ rest
      in
      succ sorted

let owner t ~tenant =
  if not (Hashtbl.mem t.c_registry tenant) then
    invalid_arg (Printf.sprintf "Cluster.owner: unknown tenant %s" tenant);
  match Hashtbl.find_opt t.c_placement tenant with
  | Some o -> o
  | None -> (
      match ring_owner t tenant with
      | Some o -> o
      | None -> invalid_arg "Cluster.owner: no live nodes")

let route t ~tenant =
  let o = owner t ~tenant in
  if Node.alive (node t o) then Ok o else Error (Node_down o)

(* Build the tenant's backend on [n]'s current plane if it is not
   there yet (migration destinations, failover rebuilds). *)
let ensure_tenant t (n : node) name =
  match Hashtbl.find_opt t.c_registry name with
  | None -> Error (Reject (Serve.Unknown_tenant name))
  | Some gen ->
      let plane = Node.plane n in
      if not (Serve.has_tenant plane ~tenant:name) then
        ignore (Serve.add_tenant plane ~name (gen ()) : Backend.t);
      Ok ()

let add_tenant t ~name gen =
  if Hashtbl.mem t.c_registry name then
    invalid_arg (Printf.sprintf "Cluster.add_tenant: duplicate tenant %s" name);
  Hashtbl.replace t.c_registry name gen;
  let o =
    match ring_owner t name with
    | Some o -> o
    | None -> invalid_arg "Cluster.add_tenant: no live nodes"
  in
  Hashtbl.replace t.c_placement name o;
  (match ensure_tenant t (node t o) name with
  | Ok () -> ()
  | Error _ -> assert false (* just registered *));
  o

(* ---------------------------------------------------------------------- *)
(* Network helper                                                         *)

let send t ~src ~dst ~bytes =
  if Netsim.is_down t.c_net src then Error (Node_down src)
  else if Netsim.is_down t.c_net dst then Error (Node_down dst)
  else
    let rec go attempt =
      match Netsim.transfer t.c_net ~src ~dst ~bytes with
      | Netsim.Delivered _ -> Ok ()
      | Netsim.Dropped ->
          if attempt >= message_retries then Error Net_partition
          else go (attempt + 1)
    in
    go 0

(* ---------------------------------------------------------------------- *)
(* Migration protocol                                                     *)

let ( let* ) = Result.bind

let offer_id ~dst ~tenant ~nonce =
  Printf.sprintf "%d:%s:%s" dst tenant (Sha256.to_hex nonce)

(* The exchange's labels ({!Sigma}): the destination's quote binds the
   transcript of every offer field, so a verified offer cannot be
   spliced onto another tenant, route or key share; the transport key
   derives under [key_label]. *)
let offer_label = "cluster-migrate-offer:"
let key_label = "cluster-migrate-key:"

let offer_fields ~tenant ~src ~dst ~nonce kx =
  [
    Bytes.of_string tenant;
    Bytes.of_string (string_of_int src);
    Bytes.of_string (string_of_int dst);
    nonce;
    kx;
  ]

(* The exchange's refusals, as the fleet names them. *)
let of_sigma = function
  | Sigma.Bad_wire m -> Blob_malformed ("offer quote: " ^ m)
  | Sigma.Refused f -> Attest_failed f
  | Sigma.Unbound | Sigma.Unknown_share -> Binding_mismatch

let blob_aad ~tenant ~src ~dst ~nonce =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "cluster-migrate:v1";
  Buffer.add_int64_le buf (Int64.of_int (String.length tenant));
  Buffer.add_string buf tenant;
  Buffer.add_int64_le buf (Int64.of_int src);
  Buffer.add_int64_le buf (Int64.of_int dst);
  Buffer.add_bytes buf nonce;
  Buffer.to_bytes buf

module Migrate = struct
  type offer = {
    o_tenant : string;
    o_src : int;
    o_dst : int;
    o_nonce : bytes;
    o_kx : Kx.public;
    o_quote : bytes;
  }

  type package = {
    p_tenant : string;
    p_src : int;
    p_dst : int;
    p_nonce : bytes;
    p_kx : Kx.public;
    p_iv : bytes;
    p_blob : bytes;
    p_tag : bytes;
  }

  let offer t ~tenant ~src ~dst =
    let dn = node t dst in
    if not (Node.alive dn) then Error (Node_down dst)
    else begin
      let o_nonce = Rng.bytes t.c_rng 16 in
      let secret, o_kx, o_quote =
        Sigma.respond t.c_rng ~label:offer_label
          ~quote:(Serve.node_quote (Node.plane dn))
          (offer_fields ~tenant ~src ~dst ~nonce:o_nonce)
      in
      Hashtbl.replace t.c_offers (offer_id ~dst ~tenant ~nonce:o_nonce) secret;
      Ok { o_tenant = tenant; o_src = src; o_dst = dst; o_nonce; o_kx; o_quote }
    end

  let seal t (o : offer) =
    let sn = node t o.o_src in
    if not (Node.alive sn) then Error (Node_down o.o_src)
    else
      let dst_anchor = (node t o.o_dst).n_anchor in
      (* The full fleet trust check before any state leaves: the
         destination's golden boot, its pinned hapk (a sibling monitor
         must not be able to receive this tenant), its pinned quoting
         enclave, and a report that answers this offer's tenant, route,
         nonce and share. *)
      let* _report =
        Result.map_error of_sigma
          (Sigma.check ~golden:dst_anchor.a_golden
             ~policy:
               {
                 Verifier.expected_mrenclave = Some dst_anchor.a_quoting;
                 expected_mrsigner = None;
                 allow_debug = false;
               }
             ~expected_hapk:dst_anchor.a_hapk ~label:offer_label
             (offer_fields ~tenant:o.o_tenant ~src:o.o_src ~dst:o.o_dst
                ~nonce:o.o_nonce o.o_kx)
             o.o_quote)
      in
      (* A share no key agrees with refuses the seal before the export. *)
      let* () =
        if Kx.valid_share o.o_kx then Ok ()
        else Error (of_sigma Sigma.Unknown_share)
      in
      let backoff attempt =
        Cycles.tick sn.n_platform.Platform.clock
          (World_switch.retry_backoff_cost sn.n_platform.Platform.cost ~attempt)
      in
      let* blob =
        match
          Fault.with_retries ~backoff (fun () ->
              Fault.point fault_site;
              Serve.export_tenant (Node.plane sn) ~tenant:o.o_tenant)
        with
        | exception Fault.Injected { site; kind } ->
            Error (Migration_fault (Fault.message ~site kind))
        | exported -> Result.map_error (fun r -> Reject r) exported
      in
      let secret, p_kx = Kx.generate t.c_rng in
      let* key =
        Result.map_error of_sigma
          (Sigma.agree ~label:key_label secret o.o_kx ~nonce:o.o_nonce)
      in
      let aad =
        blob_aad ~tenant:o.o_tenant ~src:o.o_src ~dst:o.o_dst ~nonce:o.o_nonce
      in
      (* The export is fresh and no one else holds it: it is encrypted
         where it lies and travels as the package's ciphertext. *)
      let p_iv = Rng.bytes t.c_rng 12 and p_tag = Bytes.create Authenc.tag_bytes in
      Authenc.seal_in_place (Authenc.prepare key) ~aad ~nonce:p_iv blob
        ~tag:p_tag;
      Ok
        {
          p_tenant = o.o_tenant;
          p_src = o.o_src;
          p_dst = o.o_dst;
          p_nonce = o.o_nonce;
          p_kx;
          p_iv;
          p_blob = blob;
          p_tag;
        }

  let install t (p : package) =
    let dn = node t p.p_dst in
    if not (Node.alive dn) then Error (Node_down p.p_dst)
    else
      let id = offer_id ~dst:p.p_dst ~tenant:p.p_tenant ~nonce:p.p_nonce in
      match Hashtbl.find_opt t.c_offers id with
      | None ->
          (* Never offered by this node, already consumed (replay), or
             the package was re-routed to a destination that did not
             make the offer. *)
          Error Unknown_offer
      | Some secret -> (
          Hashtbl.remove t.c_offers id;
          let* key =
            Result.map_error of_sigma
              (Sigma.agree ~label:key_label secret p.p_kx ~nonce:p.p_nonce)
          in
          (* The AAD comes from the package's own tenant, route and
             nonce: a lie in any of them fails the tag. *)
          let aad =
            blob_aad ~tenant:p.p_tenant ~src:p.p_src ~dst:p.p_dst
              ~nonce:p.p_nonce
          in
          (* The tag is checked before a byte is decrypted; the
             plaintext then replaces the ciphertext in [p_blob]. *)
          match
            Authenc.unseal_in_place (Authenc.prepare key) ~aad ~nonce:p.p_iv
              ~tag:p.p_tag p.p_blob ~off:0 ~len:(Bytes.length p.p_blob)
          with
          | exception Authenc.Authentication_failure -> Error Transport_auth
          | () ->
              let* () = ensure_tenant t dn p.p_tenant in
              Result.map_error
                (fun r -> Reject r)
                (Serve.import_tenant (Node.plane dn) p.p_blob))
end

(* Rough wire sizes: enough for the network cost model, not a codec. *)
let offer_bytes (o : Migrate.offer) =
  String.length o.Migrate.o_tenant
  + Bytes.length o.Migrate.o_nonce
  + Bytes.length o.Migrate.o_kx
  + Bytes.length o.Migrate.o_quote
  + 24

let package_bytes (p : Migrate.package) =
  String.length p.Migrate.p_tenant
  + Bytes.length p.Migrate.p_nonce
  + Bytes.length p.Migrate.p_kx
  + Bytes.length p.Migrate.p_iv
  + Bytes.length p.Migrate.p_blob
  + Bytes.length p.Migrate.p_tag
  + 24

let migrate t ~tenant ~dst =
  let src = owner t ~tenant in
  if src = dst then Ok 0
  else if not (Node.alive (node t src)) then Error (Node_down src)
  else if not (Node.alive (node t dst)) then Error (Node_down dst)
  else begin
    (* The pause a client would observe: source-side export work,
       destination-side rebuild work, and every wire crossing.  The
       three clocks are distinct by construction, so the deltas sum. *)
    let src_clock = (node t src).n_platform.Platform.clock in
    let dst_clock = (node t dst).n_platform.Platform.clock in
    let s0 = Cycles.now src_clock in
    let d0 = Cycles.now dst_clock in
    let w0 = Cycles.now t.c_wire_clock in
    let* o = Migrate.offer t ~tenant ~src ~dst in
    (* From here the destination holds a pending Kx secret: a migration
       that fails before [install] consumes it burns it, so no failed
       attempt leaves an offer behind. *)
    let installed =
      let* () = send t ~src:dst ~dst:src ~bytes:(offer_bytes o) in
      let* p = Migrate.seal t o in
      let* () = send t ~src ~dst ~bytes:(package_bytes p) in
      Migrate.install t p
    in
    Result.iter_error
      (fun _ ->
        Hashtbl.remove t.c_offers
          (offer_id ~dst ~tenant ~nonce:o.Migrate.o_nonce))
      installed;
    let* n = installed in
    let* _retired =
      Result.map_error
        (fun r -> Reject r)
        (Serve.retire_tenant (plane t src) ~tenant ~to_node:dst)
    in
    Hashtbl.replace t.c_placement tenant dst;
    let pause =
      Cycles.now src_clock - s0
      + (Cycles.now dst_clock - d0)
      + (Cycles.now t.c_wire_clock - w0)
    in
    t.c_migrations <- t.c_migrations + 1;
    t.c_migration_cycles <- t.c_migration_cycles + pause;
    if pause > t.c_max_pause then t.c_max_pause <- pause;
    Ok n
  end

(* ---------------------------------------------------------------------- *)
(* Fleet operations                                                       *)

(* A plane torn down hands its session-id counter to the node's next
   plane: an id it issued may still name a session that lives on another
   node, and must not be issued again. *)
let tear_down n p =
  n.n_next_session <- Serve.next_session_id p;
  Serve.destroy p;
  n.n_plane <- None

let bring_up n =
  let p = Serve.create_node ~platform:n.n_platform n.n_config in
  Serve.resume_session_ids p ~next:n.n_next_session;
  n.n_plane <- Some p

let kill_node t i =
  let n = node t i in
  (match n.n_plane with Some p -> tear_down n p | None -> ());
  Netsim.set_down t.c_net i true

let revive_node t i =
  let n = node t i in
  if n.n_plane = None then begin
    bring_up n;
    Netsim.set_down t.c_net i false
  end

let failover t ~tenant =
  let o = owner t ~tenant in
  if Node.alive (node t o) then Ok o
  else
    match ring_owner t tenant with
    | None -> Error (Node_down o)
    | Some dst -> (
        match ensure_tenant t (node t dst) tenant with
        | Error _ as e -> e
        | Ok () ->
            Hashtbl.replace t.c_placement tenant dst;
            Ok dst)

let resident_tenants t i =
  Hashtbl.fold
    (fun name o acc -> if o = i then name :: acc else acc)
    t.c_placement []
  |> List.sort compare

(* Ring-next live node other than [i] for draining. *)
let drain_target t i =
  let live =
    Array.to_list t.c_nodes
    |> List.filter (fun n -> Node.alive n && n.n_id <> i)
    |> List.map (fun n -> n.n_id)
  in
  match live with
  | [] -> None
  | ids -> Some (List.nth ids (i mod List.length ids))

let upgrade_node t i =
  let n = node t i in
  if not (Node.alive n) then Error (Node_down i)
  else begin
    let residents = resident_tenants t i in
    let rec drain acc = function
      | [] -> Ok (List.rev acc)
      | tenant :: rest -> (
          match drain_target t i with
          | None ->
              if residents = [] then Ok (List.rev acc)
              else Error (Node_down i) (* nowhere to drain to *)
          | Some dst -> (
              match migrate t ~tenant ~dst with
              | Error e -> Error e
              | Ok _ -> drain (tenant :: acc) rest))
    in
    match drain [] residents with
    | Error e -> Error e
    | Ok drained -> (
        (* The upgrade proper: tear the plane down and bring up the new
           build under the same node identity. *)
        tear_down n (Node.plane n);
        bring_up n;
        n.n_version <- n.n_version + 1;
        let rec come_home = function
          | [] -> Ok ()
          | tenant :: rest -> (
              match migrate t ~tenant ~dst:i with
              | Error e -> Error e
              | Ok _ -> come_home rest)
        in
        come_home drained)
  end

let rolling_upgrade t =
  let rec go i =
    if i >= Array.length t.c_nodes then Ok ()
    else
      match upgrade_node t i with Error e -> Error e | Ok () -> go (i + 1)
  in
  go 0

let check t =
  Array.to_list t.c_nodes
  |> List.filter Node.alive
  |> List.map (fun n ->
         (n.n_id, Invariants.check n.n_platform.Platform.monitor))

type stats = {
  migrations : int;
  migration_cycles : int;
  max_pause : int;
  pending_offers : int;
}

let stats t =
  {
    migrations = t.c_migrations;
    migration_cycles = t.c_migration_cycles;
    max_pause = t.c_max_pause;
    pending_offers = Hashtbl.length t.c_offers;
  }

let destroy t =
  if not t.c_destroyed then begin
    t.c_destroyed <- true;
    Array.iter
      (fun n ->
        match n.n_plane with
        | Some p ->
            Serve.destroy p;
            n.n_plane <- None
        | None -> ())
      t.c_nodes;
    Hashtbl.reset t.c_registry;
    Hashtbl.reset t.c_placement;
    Hashtbl.reset t.c_offers
  end

(* ---------------------------------------------------------------------- *)
(* Clients                                                                *)

module Client = struct
  type cluster = t

  type t = {
    cl : cluster;
    tenant : string;
    rng : Rng.t;
    policy : Verifier.policy;
    mutable sc : Serve.Client.t;
    mutable node : int;
    mutable open_ : bool;
  }

  let default_policy =
    {
      Verifier.expected_mrenclave = None;
      expected_mrsigner = None;
      allow_debug = false;
    }

  let lb_send c ~bytes = send c.cl ~src:Netsim.front ~dst:c.node ~bytes

  let lb_recv c ~bytes = send c.cl ~src:c.node ~dst:Netsim.front ~bytes

  let hello_bytes = 16 + 32

  let accept_bytes (a : Serve.accept) =
    Bytes.length a.Serve.quote_wire
    + Bytes.length a.Serve.tenant_identity
    + 32 + 16

  (* 70 wire bytes over the ciphertext each way: a frame's 32-byte tag
     and 38 bytes of header.  A reject, from admission or the enclave,
     is 70 bytes. *)
  let request_bytes (r : Serve.request) = Bytes.length r.Serve.frame + 38

  let reply_bytes = function
    | Ok { Serve.r_result = Ok (); r_len; _ } -> r_len + 38
    | Ok { Serve.r_result = Error _; _ } | Error _ -> 70

  let sum_bytes size = List.fold_left (fun n x -> n + size x) 0

  (* A serving client pinned to [node]'s anchor. *)
  let serving_client cl ~rng ~policy node =
    let a = anchor cl node in
    Serve.Client.create ~rng ~golden:a.a_golden ~policy ~expected_hapk:a.a_hapk ()

  let retarget c node =
    c.node <- node;
    c.sc <- serving_client c.cl ~rng:c.rng ~policy:c.policy node

  (* One handshake attempt against [c.node], whose anchor [c.sc] pins;
     chases Tenant_migrated forwards by re-pinning the new owner's
     anchor (bounded by fleet size — forwards cannot cycle without a
     migration in between). *)
  let rec connect_at c hops =
    if hops > Array.length c.cl.c_nodes then Error (Reject (Serve.Unknown_tenant c.tenant))
    else if not (Node.alive (node c.cl c.node)) then Error (Node_down c.node)
    else begin
      let hello = Serve.Client.hello c.sc in
      match lb_send c ~bytes:hello_bytes with
      | Error e -> Error e
      | Ok () -> (
          match Serve.handshake (plane c.cl c.node) ~tenant:c.tenant hello with
          | Error (Serve.Tenant_migrated { to_node; _ }) ->
              retarget c to_node;
              connect_at c (hops + 1)
          | Error r -> Error (Reject r)
          | Ok accept -> (
              match lb_recv c ~bytes:(accept_bytes accept) with
              | Error e -> Error e
              | Ok () -> (
                  match Serve.Client.establish c.sc accept with
                  | Error r -> Error (Reject r)
                  | Ok () ->
                      c.open_ <- true;
                      Ok ())))
    end

  let connect cl ~rng ~tenant ?(policy = default_policy) () =
    match route cl ~tenant with
    | Error e -> Error e
    | Ok owner ->
        let c =
          {
            cl;
            tenant;
            rng;
            policy;
            sc = serving_client cl ~rng ~policy owner;
            node = owner;
            open_ = false;
          }
        in
        (match connect_at c 0 with Error e -> Error e | Ok () -> Ok c)

  let node_id c = c.node
  let session_id c = Serve.Client.session_id c.sc

  (* Send the unadmitted rest of a call's frames as one message and
     admit them in order.  A typed [Session_migrated] forward re-points
     the client and re-sends the rest as one message to the new owner:
     the same frames stay valid there because the session's key and
     anti-replay window moved with it.  Returns every admission, in
     request order. *)
  let rec admit_rest c hops admitted rest =
    if hops > Array.length c.cl.c_nodes then
      Error (Reject (Serve.Session_migrated { to_node = c.node }))
    else
      match lb_send c ~bytes:(sum_bytes request_bytes rest) with
      | Error e -> Error e
      | Ok () ->
          let plane = plane c.cl c.node in
          let rec go admitted = function
            | [] -> Ok (List.rev admitted)
            | req :: tl as rest -> (
                match Serve.submit plane req with
                | Error (Serve.Session_migrated { to_node }) ->
                    c.node <- to_node;
                    admit_rest c (hops + 1) admitted rest
                | admission -> go ((req, admission) :: admitted) tl)
          in
          go admitted rest

  let call c reqs =
    if not c.open_ then Error (Reject (Serve.Session_fault "client not connected"))
    else if reqs = [] then Ok []
    else
      let batch =
        List.map (fun (ecall, data) -> Serve.Client.request c.sc ~ecall data) reqs
      in
      match admit_rest c 0 [] batch with
      | Error e -> Error e
      | Ok admitted -> (
          let replies = Serve.flush (plane c.cl c.node) in
          let mine = session_id c in
          let outcomes =
            List.map
              (fun ((req : Serve.request), admission) ->
                match admission with
                | Error r -> Error r
                | Ok () -> (
                    match
                      List.find_opt
                        (fun (r : Serve.reply) ->
                          r.Serve.r_session_id = mine
                          && r.Serve.r_seq = req.Serve.seq)
                        replies
                    with
                    | None ->
                        Error (Serve.Session_fault "no reply for admitted request")
                    | Some reply -> Ok reply))
              admitted
          in
          match lb_recv c ~bytes:(sum_bytes reply_bytes outcomes) with
          | Error e -> Error e
          | Ok () ->
              Ok
                (List.map
                   (function
                     | Ok reply -> Serve.Client.read_reply c.sc reply
                     | Error r -> Error r)
                   outcomes))

  let reconnect c =
    c.open_ <- false;
    match route c.cl ~tenant:c.tenant with
    | Error e -> Error e
    | Ok owner ->
        retarget c owner;
        connect_at c 0

  (* Closing crosses no message; it follows [Session_migrated] forwards
     under the call's hop bound, so a session whose tenant moved since
     the last call is closed on its new owner. *)
  let close c =
    let rec go hops =
      if hops <= Array.length c.cl.c_nodes && Node.alive (node c.cl c.node) then
        match Serve.close_session (plane c.cl c.node) ~session:(session_id c) with
        | Error (Serve.Session_migrated { to_node }) ->
            c.node <- to_node;
            go (hops + 1)
        | Ok () | Error _ -> ()
    in
    if c.open_ then begin
      c.open_ <- false;
      go 0
    end
end
