(* splitmix64: fast, high-quality, and trivially reproducible; the standard
   choice for seeding deterministic simulations.

   The state is an 8-byte buffer read and written with the unboxed 64-bit
   bytes primitives: a mutable int64 field would box a fresh state on
   every draw.  Each draw below runs [draw] inlined, so its int64s stay
   in registers and a draw allocates nothing. *)
type t = bytes

external get_state : bytes -> int -> int64 = "%caml_bytes_get64u"
external set_state : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] draw t =
  let open Int64 in
  let z = add (get_state t 0) 0x9E3779B97F4A7C15L in
  set_state t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let set_seed t seed = set_state t 0 seed
let state t = get_state t 0
let next_int64 t = draw t
let split t = create ~seed:(draw t)

(* The top 62 bits, as a non-negative int. *)
let[@inline] draw_int t = Int64.to_int (Int64.shift_right_logical (draw t) 2)

let int t bound =
  assert (bound > 0);
  draw_int t mod bound

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (draw t) 11) in
  raw /. 9007199254740992.0 *. bound

let bool t = Int64.logand (draw t) 1L = 1L

(* One draw per byte, as [int t 256] takes it. *)
let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (draw_int t land 255))
  done;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
