(** Measurement helpers for experiments.

    {!Series} collects latency samples for percentile reporting; it is
    cheap enough to leave enabled in every run. *)

module Series : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int

  val mean : t -> float

  (** [percentile t p] with [p] in [\[0,100\]]; 50.0 is the median.
      Linear interpolation between order statistics; a 1-sample series
      returns that sample for every [p].
      @raise Invalid_argument if the series is empty or [p] is outside
      [\[0,100\]]. *)
  val percentile : t -> float -> float

  (** Raise-free variant: [None] on an empty series. Still raises
      [Invalid_argument] on [p] outside [\[0,100\]] — that is a caller
      bug, not a data condition. *)
  val percentile_opt : t -> float -> float option
end
