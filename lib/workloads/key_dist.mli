(** Key distributions for the transaction benchmarks (§6.2): uniform
    or zipfian choice over a fixed key population, rendered as the
    string keys Tango objects use. *)

type t

val uniform : n:int -> t

(** [zipf ~n ()] is {!Zipf.create}'s distribution (theta 0.99) over
    [n] keys. *)
val zipf : n:int -> unit -> t

(** [sample t rng] draws a key index. *)
val sample : t -> Sim.Rng.t -> int

(** [key_name i] renders index [i] as a map key ("k00000042"). *)
val key_name : int -> string

(** [sample_key t rng] = [key_name (sample t rng)]. *)
val sample_key : t -> Sim.Rng.t -> string

(** [distinct_keys t rng count] draws [count] distinct keys — a
    transaction's read or write set. *)
val distinct_keys : t -> Sim.Rng.t -> int -> string list
