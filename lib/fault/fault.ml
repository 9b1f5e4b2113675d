module Telemetry = Hyperenclave_obs.Telemetry

type kind = Transient | Permanent

exception Injected of { site : string; kind : kind }

let kind_name = function Transient -> "transient" | Permanent -> "permanent"

let message ~site kind =
  Printf.sprintf "injected %s fault at %s" (kind_name kind) site

type spec = { site : string; nth : int; kind : kind }
type plan = spec list

let sites =
  [
    "hypercall.dispatch";
    "epc.alloc";
    "epc.swap_in";
    "tpm.quote";
    "tpm.seal";
    "tpm.unseal";
    "switch.aex";
    "switch.eresume";
    "sdk.ms_copy_in";
    "sdk.ms_copy_out";
    "sdk.aex_storm";
    "os.ioctl";
    "serve.session";
    "cluster.migrate";
  ]

let require_registered site =
  if not (List.mem site sites) then
    invalid_arg ("Fault: unregistered site " ^ site)

(* A private splitmix64 keeps plan derivation independent of the
   platform RNG streams: installing a plan must not perturb the
   simulation's own randomness. *)
let plan_of_seed ?(sites = sites) ?(faults = 3) ?(max_nth = 4) seed =
  let rng = Hyperenclave_hw.Rng.create ~seed in
  let site_arr = Array.of_list sites in
  let seen = Hashtbl.create 8 in
  let draw () =
    let site = site_arr.(Hyperenclave_hw.Rng.int rng (Array.length site_arr)) in
    let nth = 1 + Hyperenclave_hw.Rng.int rng max_nth in
    let kind =
      if Hyperenclave_hw.Rng.int rng 3 < 2 then Transient else Permanent
    in
    { site; nth; kind }
  in
  (* A spec fires at most once per (site, nth) hit, so a duplicate pair
     would be dead weight in the schedule; redraw a few times to keep
     every slot live (bounded so tiny site lists still terminate). *)
  let rec fresh tries =
    let s = draw () in
    if tries > 0 && Hashtbl.mem seen (s.site, s.nth) then fresh (tries - 1)
    else s
  in
  List.init faults (fun _ ->
      let s = fresh 8 in
      Hashtbl.replace seen (s.site, s.nth) ();
      s)

let plan_to_string plan =
  if plan = [] then "(empty)"
  else
    String.concat " + "
      (List.map
         (fun s -> Printf.sprintf "%s@%d:%s" s.site s.nth (kind_name s.kind))
         plan)

type state = {
  mutable specs : (spec * bool ref) list;
  hits : (string, int) Hashtbl.t;
  mutable telemetry : Telemetry.t option;
  mutable observer : (site:string -> kind -> unit) option;
  mutable injected : int;
}

let state =
  {
    specs = [];
    hits = Hashtbl.create 16;
    telemetry = None;
    observer = None;
    injected = 0;
  }

(* Fast-path flag: with no plan installed the per-site cost is one ref
   read, and neither the clock nor any RNG stream is touched. *)
let armed = ref false

let install ?telemetry plan =
  List.iter (fun s -> require_registered s.site) plan;
  state.specs <- List.map (fun s -> (s, ref false)) plan;
  Hashtbl.reset state.hits;
  state.telemetry <- telemetry;
  state.injected <- 0;
  armed := true

let clear () =
  armed := false;
  state.specs <- [];
  Hashtbl.reset state.hits;
  state.telemetry <- None;
  state.observer <- None;
  state.injected <- 0

let active () = !armed
let on_inject f = state.observer <- Some f
let injected_count () = state.injected
let hits site = try Hashtbl.find state.hits site with Not_found -> 0

let bump name =
  match state.telemetry with
  | Some t -> Telemetry.incr t name
  | None -> ()

let check site =
  if not !armed then None
  else begin
    require_registered site;
    let n = hits site + 1 in
    Hashtbl.replace state.hits site n;
    let firing =
      List.find_opt
        (fun (spec, fired) -> (not !fired) && spec.site = site && spec.nth = n)
        state.specs
    in
    match firing with
    | None -> None
    | Some (spec, fired) ->
        fired := true;
        state.injected <- state.injected + 1;
        bump "fault.injected";
        bump ("fault.injected." ^ site);
        (match state.observer with
        | Some f -> f ~site spec.kind
        | None -> ());
        Some spec.kind
  end

let point site =
  match check site with
  | None -> ()
  | Some kind -> raise (Injected { site; kind })

let survived site =
  bump "fault.survived";
  bump ("fault.survived." ^ site)

let retried site =
  bump "fault.retried";
  bump ("fault.retried." ^ site)

(* A top-level loop, not a local closure: a call that no fault
   interrupts allocates nothing here. *)
let rec attempt ~max_attempts ~backoff f n recovering_from =
  match f () with
  | v ->
      (match recovering_from with Some site -> survived site | None -> ());
      v
  | exception (Injected { site; kind = Transient } as e) ->
      if n >= max_attempts then raise e
      else begin
        retried site;
        backoff n;
        attempt ~max_attempts ~backoff f (n + 1) (Some site)
      end

let with_retries ?(max_attempts = 3) ~backoff f =
  attempt ~max_attempts ~backoff f 1 None
