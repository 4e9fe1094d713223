(* YCSB's skew. *)
let theta = 0.99

type t = {
  size : int;
  alpha : float;
  zetan : float;
  eta : float;
  half_pow_theta : float;
}

let zeta n =
  let sum = ref 0. in
  for i = 1 to n do
    sum := !sum +. (1. /. Float.pow (float_of_int i) theta)
  done;
  !sum

let create ~n () =
  if n < 1 then invalid_arg "Zipf.create: n must be positive";
  let zetan = zeta n in
  let zeta2 = zeta 2 in
  let alpha = 1. /. (1. -. theta) in
  let eta = (1. -. Float.pow (2. /. float_of_int n) (1. -. theta)) /. (1. -. (zeta2 /. zetan)) in
  { size = n; alpha; zetan; eta; half_pow_theta = Float.pow 0.5 theta }

let n t = t.size

let sample t rng =
  let u = Sim.Rng.float rng 1.0 in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. t.half_pow_theta then 1
  else begin
    let rank =
      int_of_float (float_of_int t.size *. Float.pow ((t.eta *. u) -. t.eta +. 1.) t.alpha)
    in
    if rank >= t.size then t.size - 1 else rank
  end
