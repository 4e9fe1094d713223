(** Deterministic pseudo-random number generation for simulations.

    A small, fast, splittable PRNG (splitmix64). Every simulation owns
    one generator seeded at construction, so runs are reproducible
    bit-for-bit regardless of scheduling. *)

type t

(** [create seed] returns a fresh generator. Equal seeds produce equal
    streams. *)
val create : int -> t

(** [split t] derives an independent generator from [t], advancing
    [t]. Useful to give each simulated client its own stream. *)
val split : t -> t

(** [int64 t] returns the next raw 64-bit output. *)
val int64 : t -> int64

(** [int t bound] returns a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] returns a uniform float in [\[0, bound)]. *)
val float : t -> float -> float

(** [bool t p] returns [true] with probability [p]. *)
val bool : t -> float -> bool

(** [exponential t ~mean] samples an exponential variate. *)
val exponential : t -> mean:float -> float

(** [shuffle t arr] shuffles [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
