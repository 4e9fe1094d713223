(** Zipfian key sampling, YCSB-style.

    Figure 9 chooses keys "using a highly skewed zipf distribution
    (corresponding to workload 'a' of the Yahoo! Cloud Serving
    Benchmark)". This is the standard YCSB ZipfianGenerator with the
    Gray et al. approximation: rank 0 is the hottest key. *)

type t

(** [create ~n ()] prepares a sampler over ranks [\[0, n)] with
    YCSB's skew, theta = 0.99.
    @raise Invalid_argument if [n < 1]. *)
val create : n:int -> unit -> t

val n : t -> int

(** [sample t rng] draws a rank; low ranks are hot. *)
val sample : t -> Sim.Rng.t -> int
