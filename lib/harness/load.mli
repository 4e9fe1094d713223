(** Load generation and measurement for the evaluation harness.

    Mirrors the paper's methodology (§6): closed loops with a window
    of outstanding operations per client for the latency/throughput
    curves, and open loops with a target rate for the
    fixed-write-load experiments. Warmup is excluded from
    measurement. *)

type report = {
  throughput : float;  (** completed ops per second *)
  goodput : float;  (** successful (committed) ops per second *)
  latency_mean_us : float;
  latency_p50_us : float;
  latency_p99_us : float;
  samples : int;
}

(** [closed_loop ~fibers op] spawns [fibers] fibers repeatedly
    invoking [op] (its [bool] result marks goodput) and measures for
    [measure_us] (default 1 s) after [warmup_us] (default 200 ms).
    Call from the simulation's main fiber. *)
val closed_loop :
  ?warmup_us:float -> ?measure_us:float -> fibers:int -> (unit -> bool) -> report

(** [open_loop ~rate op] fires [op] at [rate] per second (Poisson
    arrivals), each in its own fiber, capping in-flight ops at
    [max_outstanding] (default 10_000; excess arrivals are dropped and
    not counted). *)
val open_loop :
  ?warmup_us:float ->
  ?measure_us:float ->
  ?max_outstanding:int ->
  rate:float ->
  (unit -> bool) ->
  report

(** Aggregate client-population model: open-loop load at 10⁴–10⁶
    modeled clients without a fiber per client. One driver fiber
    produces the population's {e superposed} Poisson arrival process
    (clients × per-client rate) and tracks per-client in-flight counts
    in a plain int array; requests visit modeled service stations
    (per-slot free-time arrays, exponential service) and return a link
    delay later. Memory and event cost scale with the arrival rate,
    not the client count. The whole model is deterministic: the driver
    and every station draw from decorrelated {!Sim.Rng.create_stream}
    streams of [cfg.seed].

    Usage (from the main fiber):
    {[
      let pop = Load.Population.create cfg in
      Sim.Engine.run (fun () ->
          Load.Population.start pop;
          Load.Population.await pop)
    ]} *)
module Population : sig
  type cfg = {
    clients : int;  (** total modeled clients *)
    rate_per_client : float;  (** open-loop ops/s per client *)
    link_us : float;  (** one-way client↔station delay, µs *)
    service_us : float;  (** mean exponential service time, µs *)
    stations : int;  (** modeled service stations *)
    station_slots : int;  (** parallel slots per station *)
    max_outstanding : int;  (** per-client in-flight cap; excess arrivals drop *)
    warmup_us : float;  (** window start (absolute; population starts at t=0) *)
    measure_us : float;  (** window length *)
    drain_us : float;  (** grace after the window before snapshotting *)
    seed : int;  (** RNG seed for the driver and stations *)
  }

  (** Override with [{ default_cfg with ... }]. *)
  val default_cfg : cfg

  type t

  type result = {
    pop_report : report;  (** windowed completions only *)
    pop_issued : int;  (** requests actually sent (drops excluded) *)
    pop_completed : int;  (** responses received by the drain deadline *)
    pop_dropped : int;  (** arrivals rejected by [max_outstanding] *)
    pop_inflight : int;  (** [issued - completed] at the deadline *)
  }

  (** [create cfg] preallocates the per-client and per-station state.
      @raise Invalid_argument on no clients, a non-positive rate,
      empty stations/slots or a [max_outstanding] below 1. *)
  val create : cfg -> t

  (** [start t] spawns the driver fiber. Call once, inside a run. *)
  val start : t -> unit

  (** [await t] blocks the calling fiber until the driver has hit its
      drain deadline, then returns the counters as they stood there. *)
  val await : t -> result
end

(** [measure_counter ~warmup_us ~measure_us get] samples a
    monotonically increasing counter over the window and returns its
    rate per second — for throughput that is counted inside the
    system (e.g. records applied). *)
val measure_counter : ?warmup_us:float -> ?measure_us:float -> (unit -> int) -> float
