open Hyperenclave_hw
open Hyperenclave_os
open Hyperenclave_tee

let kernel_names =
  [
    "600.perlbench_s";
    "602.gcc_s";
    "605.mcf_s";
    "620.omnetpp_s";
    "623.xalancbmk_s";
    "625.x264_s";
    "631.deepsjeng_s";
    "641.leela_s";
    "657.xz_s";
  ]

type result = {
  name : string;
  native_cycles : int;
  vm_cycles : int;
  overhead_pct : float;
}

(* One data region per kernel run; touched through the real MMU so nested
   paging shows up in the walk costs. *)
let region_pages = 64

let touch (p : Platform.t) va =
  ignore (Mmu.translate p.cpu ~access:Mmu.Read ~user:true va)

let touch_region p ~base ~pages =
  for i = 0 to pages - 1 do
    touch p (base + (i * Addr.page_size))
  done

(* --- kernels ------------------------------------------------------------------ *)

let perlbench (p : Platform.t) rng ~base =
  let text =
    String.init 8192 (fun _ -> Char.chr (97 + Rng.int rng 4))
  in
  let pattern = "abca" in
  let matches = ref 0 in
  for i = 0 to String.length text - String.length pattern do
    let rec eq j = j >= String.length pattern || (text.[i + j] = pattern.[j] && eq (j + 1)) in
    if eq 0 then incr matches
  done;
  assert (!matches >= 0);
  Cycles.tick p.clock (String.length text * 8);
  touch_region p ~base ~pages:16

let gcc (p : Platform.t) rng ~base =
  let source =
    String.concat ""
      (List.init 256 (fun i ->
           Printf.sprintf "int f%d(int x) { return x %c %d; }\n" i
             (if Rng.bool rng then '+' else '*')
             (Rng.int rng 100)))
  in
  let idents = ref 0 and depth = ref 0 and max_depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '{' | '(' ->
          incr depth;
          max_depth := max !max_depth !depth
      | '}' | ')' -> decr depth
      | 'a' .. 'z' -> incr idents
      | _ -> ())
    source;
  assert (!depth = 0 && !max_depth > 0);
  Cycles.tick p.clock (String.length source * 10);
  touch_region p ~base ~pages:24

let mcf (p : Platform.t) rng ~base =
  let nodes = 256 in
  let edges =
    Array.init (nodes * 4) (fun _ ->
        (Rng.int rng nodes, Rng.int rng nodes, 1 + Rng.int rng 50))
  in
  let dist = Array.make nodes max_int in
  dist.(0) <- 0;
  let relaxations = ref 0 in
  for _ = 1 to 24 do
    Array.iter
      (fun (u, v, w) ->
        incr relaxations;
        if dist.(u) < max_int && dist.(u) + w < dist.(v) then dist.(v) <- dist.(u) + w)
      edges
  done;
  assert (dist.(0) = 0);
  Cycles.tick p.clock (!relaxations * 6);
  touch_region p ~base ~pages:12

let omnetpp (p : Platform.t) rng ~base =
  (* Discrete-event simulation over a binary-heap future-event set. *)
  let heap = Array.make 4096 (max_int, 0) in
  let size = ref 0 in
  let push t v =
    heap.(!size) <- (t, v);
    incr size;
    let i = ref (!size - 1) in
    while !i > 0 && fst heap.((!i - 1) / 2) > fst heap.(!i) do
      let parent = (!i - 1) / 2 in
      let tmp = heap.(parent) in
      heap.(parent) <- heap.(!i);
      heap.(!i) <- tmp;
      i := parent
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < !size && fst heap.(l) < fst heap.(!smallest) then smallest := l;
      if r < !size && fst heap.(r) < fst heap.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = heap.(!smallest) in
        heap.(!smallest) <- heap.(!i);
        heap.(!i) <- tmp;
        i := !smallest
      end
    done;
    top
  in
  for i = 1 to 512 do
    push (Rng.int rng 100000) i
  done;
  let processed = ref 0 and last = ref (-1) in
  while !size > 0 do
    let t, _ = pop () in
    assert (t >= !last);
    last := t;
    incr processed;
    if !processed mod 4 = 0 && !size < 4000 then push (t + Rng.int rng 1000) 0
  done;
  Cycles.tick p.clock (!processed * 40);
  touch_region p ~base ~pages:8

let xalancbmk (p : Platform.t) rng ~base =
  (* Tree transformation: random binary tree, subtree-sum rewrite. *)
  let n = 1024 in
  let left = Array.make n (-1) and right = Array.make n (-1) in
  let value = Array.init n (fun _ -> Rng.int rng 100) in
  for i = 1 to n - 1 do
    let parent = Rng.int rng i in
    if left.(parent) = -1 then left.(parent) <- i
    else if right.(parent) = -1 then right.(parent) <- i
    else begin
      (* walk down until a free slot *)
      let node = ref parent in
      while left.(!node) <> -1 && right.(!node) <> -1 do
        node := if Rng.bool rng then left.(!node) else right.(!node)
      done;
      if left.(!node) = -1 then left.(!node) <- i else right.(!node) <- i
    end
  done;
  let visits = ref 0 in
  let rec subtree_sum i =
    if i = -1 then 0
    else begin
      incr visits;
      let s = value.(i) + subtree_sum left.(i) + subtree_sum right.(i) in
      value.(i) <- s;
      s
    end
  in
  let total = subtree_sum 0 in
  assert (total >= 0 && !visits = n);
  Cycles.tick p.clock (!visits * 25);
  touch_region p ~base ~pages:20

let x264 (p : Platform.t) rng ~base =
  let dim = 64 in
  let frame () = Array.init (dim * dim) (fun _ -> Rng.int rng 256) in
  let a = frame () and b = frame () in
  let sad_total = ref 0 in
  for by = 0 to (dim / 16) - 1 do
    for bx = 0 to (dim / 16) - 1 do
      let sad = ref 0 in
      for y = 0 to 15 do
        for x = 0 to 15 do
          let idx = (((by * 16) + y) * dim) + (bx * 16) + x in
          sad := !sad + abs (a.(idx) - b.(idx))
        done
      done;
      sad_total := !sad_total + !sad
    done
  done;
  assert (!sad_total > 0);
  Cycles.tick p.clock (dim * dim * 4);
  touch_region p ~base ~pages:16

let deepsjeng (p : Platform.t) rng ~base =
  let nodes = ref 0 in
  let rec alphabeta depth alpha beta seed =
    incr nodes;
    if depth = 0 then (seed * 2654435761) land 0xff
    else begin
      let best = ref alpha in
      let i = ref 0 in
      while !i < 4 && !best < beta do
        let score =
          - alphabeta (depth - 1) (-beta) (- !best) ((seed * 31) + !i)
        in
        if score > !best then best := score;
        incr i
      done;
      !best
    end
  in
  let score = alphabeta 6 (-1000) 1000 (Rng.int rng 1000) in
  assert (score >= -1000 && score <= 1000);
  Cycles.tick p.clock (!nodes * 30);
  touch_region p ~base ~pages:8

let leela (p : Platform.t) rng ~base =
  let dim = 9 in
  let playouts = 128 in
  let wins = ref 0 in
  for _ = 1 to playouts do
    let board = Array.make (dim * dim) 0 in
    Array.iteri (fun i _ -> board.(i) <- 1 + Rng.int rng 2) board;
    let territory = Array.fold_left (fun acc v -> if v = 1 then acc + 1 else acc) 0 board in
    if territory > dim * dim / 2 then incr wins
  done;
  assert (!wins >= 0 && !wins <= playouts);
  Cycles.tick p.clock (playouts * dim * dim * 5);
  touch_region p ~base ~pages:8

let xz (p : Platform.t) rng ~base =
  (* LZ77-style hash-chain matcher over generated data. *)
  let len = 8192 in
  let data = Bytes.init len (fun i -> Char.chr ((i * 7 mod 31) + Rng.int rng 4)) in
  let table = Hashtbl.create 1024 in
  let matched = ref 0 and literals = ref 0 in
  let i = ref 0 in
  while !i < len - 4 do
    let key = Bytes.sub_string data !i 4 in
    (match Hashtbl.find_opt table key with
    | Some prev when !i - prev < 4096 ->
        incr matched;
        i := !i + 4
    | Some _ | None ->
        incr literals;
        incr i);
    Hashtbl.replace table key !i
  done;
  assert (!matched + !literals > 0);
  Cycles.tick p.clock (len * 12);
  touch_region p ~base ~pages:16

let kernels =
  [
    perlbench; gcc; mcf; omnetpp; xalancbmk; x264; deepsjeng; leela; xz;
  ]

(* --- runner -------------------------------------------------------------------- *)

let timer_period = 550_000

let run_mode (p : Platform.t) ~nested kernel ~iterations =
  Kernel.with_translation p.kernel ~nested (fun () ->
      let base =
        Kernel.mmap p.kernel p.proc ~len:(region_pages * Addr.page_size)
          ~populate:true
      in
      let rng = Rng.create ~seed:2024L in
      kernel p rng ~base (* warm-up *);
      let next_tick = ref (Cycles.now p.clock + timer_period) in
      let _, cycles =
        Cycles.time p.clock (fun () ->
            for _ = 1 to iterations do
              kernel p rng ~base;
              while Cycles.now p.clock >= !next_tick do
                (* Timer tick: bare interrupt natively; a VM exit plus
                   re-injection when virtualized. *)
                Cycles.tick p.clock
                  (if nested then 1800 + p.cost.vmexit + p.cost.vminject
                   else 1800);
                next_tick := !next_tick + timer_period
              done
            done)
      in
      cycles)

let run (p : Platform.t) =
  List.map2
    (fun name kernel ->
      let iterations = 8 in
      let native_cycles = run_mode p ~nested:false kernel ~iterations in
      let vm_cycles = run_mode p ~nested:true kernel ~iterations in
      let overhead_pct =
        float_of_int (vm_cycles - native_cycles)
        /. float_of_int native_cycles *. 100.0
      in
      { name; native_cycles; vm_cycles; overhead_pct })
    kernel_names kernels
