open Hyperenclave_hw

type owner = Monitor | Enclave of int

type frame_info = { owner : owner; page_type : Sgx_types.page_type; vpn : int }

type t = {
  alloc : Frame_alloc.t;
  meta : (int, frame_info) Hashtbl.t;
  mutable hand : int;  (** clock-hand cursor, an index into [0, nframes) *)
  ref_bits : Bytes.t;  (** second-chance reference bit per frame index *)
}

exception Epc_exhausted

let create ~base_frame ~nframes =
  {
    alloc = Frame_alloc.create ~base_frame ~nframes;
    meta = Hashtbl.create 1024;
    hand = 0;
    ref_bits = Bytes.make (max 1 nframes) '\000';
  }

let mark_referenced t frame =
  let idx = frame - Frame_alloc.base_frame t.alloc in
  if idx >= 0 && idx < Bytes.length t.ref_bits then Bytes.set t.ref_bits idx '\001'

let alloc t ~owner ~page_type ~vpn =
  let frame =
    try Frame_alloc.alloc t.alloc with Frame_alloc.Out_of_frames -> raise Epc_exhausted
  in
  Hashtbl.replace t.meta frame { owner; page_type; vpn };
  mark_referenced t frame;
  frame

let free t frame =
  Hashtbl.remove t.meta frame;
  Frame_alloc.free t.alloc frame

let free_enclave t ~enclave_id =
  let frames =
    Hashtbl.fold
      (fun frame info acc ->
        match info.owner with
        | Enclave id when id = enclave_id -> frame :: acc
        | Enclave _ | Monitor -> acc)
      t.meta []
  in
  List.iter (free t) frames;
  frames

let info t frame = Hashtbl.find_opt t.meta frame
let clock_hand t = t.hand
let alloc_hint t = Frame_alloc.hint t.alloc

let referenced t frame =
  let idx = frame - Frame_alloc.base_frame t.alloc in
  idx >= 0 && idx < Bytes.length t.ref_bits && Bytes.get t.ref_bits idx <> '\000'
let in_pool t frame = Frame_alloc.owns t.alloc frame
let base_frame t = Frame_alloc.base_frame t.alloc
let nframes t = Frame_alloc.total t.alloc
let free_count t = Frame_alloc.free_count t.alloc
let used_count t = Hashtbl.length t.meta

(* Clock-hand (second-chance) victim selection.  Hashtbl.fold order is
   insertion order, so the old selector evicted the oldest enclave's pages
   over and over under multi-enclave pressure; the rotating hand spreads
   evictions across the pool.  Each pass relaxes one constraint so the
   monitor never reports exhaustion while any Pt_reg frame exists:
   skip prefer_not + in_use, then skip in_use, then skip prefer_not,
   then any Pt_reg frame. *)
let scan t ~exclude ~in_use ~second_chance =
  let n = Frame_alloc.total t.alloc in
  if n = 0 then None
  else begin
    let base = Frame_alloc.base_frame t.alloc in
    (* With second-chance on, a full first lap may only clear reference
       bits; a second lap is then guaranteed to find any eligible frame. *)
    let budget = if second_chance then 2 * n else n in
    let found = ref None in
    let steps = ref 0 in
    while !found = None && !steps < budget do
      let idx = t.hand in
      t.hand <- (t.hand + 1) mod n;
      incr steps;
      let frame = base + idx in
      match Hashtbl.find_opt t.meta frame with
      | Some ({ owner = Enclave id; page_type = Sgx_types.Pt_reg; _ } as info)
        when exclude <> Some id && not (in_use frame info) ->
          if second_chance && Bytes.get t.ref_bits idx <> '\000' then
            Bytes.set t.ref_bits idx '\000'
          else found := Some (frame, info)
      | Some _ | None -> ()
    done;
    !found
  end

let find_victim ?(in_use = fun _ _ -> false) t ~prefer_not =
  let no_in_use _ _ = false in
  match scan t ~exclude:prefer_not ~in_use ~second_chance:true with
  | Some v -> Some v
  | None -> (
      match scan t ~exclude:None ~in_use ~second_chance:true with
      | Some v -> Some v
      | None -> (
          match scan t ~exclude:prefer_not ~in_use:no_in_use ~second_chance:false with
          | Some v -> Some v
          | None -> scan t ~exclude:None ~in_use:no_in_use ~second_chance:false))

type snapshot = {
  s_alloc : Frame_alloc.snapshot;
  s_meta : (int * frame_info) list;
  s_hand : int;
  s_ref_bits : Bytes.t;
}

let snapshot t =
  {
    s_alloc = Frame_alloc.snapshot t.alloc;
    s_meta = Hashtbl.fold (fun frame info acc -> (frame, info) :: acc) t.meta [];
    s_hand = t.hand;
    s_ref_bits = Bytes.copy t.ref_bits;
  }

let restore t snap =
  Frame_alloc.restore t.alloc snap.s_alloc;
  Hashtbl.reset t.meta;
  List.iter (fun (frame, info) -> Hashtbl.replace t.meta frame info) snap.s_meta;
  t.hand <- snap.s_hand;
  Bytes.blit snap.s_ref_bits 0 t.ref_bits 0 (Bytes.length t.ref_bits)

let used_by t ~enclave_id =
  Hashtbl.fold
    (fun _ info acc ->
      match info.owner with
      | Enclave id when id = enclave_id -> acc + 1
      | Enclave _ | Monitor -> acc)
    t.meta 0
