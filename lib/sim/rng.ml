(* The 64-bit state lives in 8 bytes rather than a [mutable int64]
   field, which would box on every draw; with [next_seed] and [mix]
   inlined, a draw allocates nothing but a boxed result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_seed t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  s

(* splitmix64 finalizer: two xor-shift-multiply rounds. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t = mix (next_seed t)

let split t = of_state (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value is a non-negative OCaml int. *)
  let positive = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  positive mod bound

let float t bound =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (bits /. 9007199254740992.0)

let bool t p = float t 1.0 < p

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u
