(** Measurement helpers for experiments.

    {!Series} collects latency samples for percentile reporting;
    {!Meter} counts events against the virtual clock for throughput
    reporting. Both are cheap enough to leave enabled in every run. *)

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

  val min : t -> float
  val max : t -> float
  val stddev : t -> float
end

(** A named monotonic counter, for counting discrete incidents (failed
    RPCs, retries, rebuild entries) that availability reports surface
    alongside the rate meters. *)
module Counter : sig
  type t

  val create : name:string -> unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val count : t -> int
  val name : t -> string
end

module Meter : sig
  type t

  (** [create ()] starts counting at the current virtual time. *)
  val create : unit -> t

  (** [mark t] records one event; [mark_n t n] records [n]. *)
  val mark : t -> unit

  val mark_n : t -> int -> unit
  val count : t -> int

  (** [reset t] zeroes the count and restarts the window now. *)
  val reset : t -> unit

  (** [rate t] is events per {e second} (not µs) since the window
      started. *)
  val rate : t -> float
end
