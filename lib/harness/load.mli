(** Load generation and measurement for the evaluation harness.

    Mirrors the paper's methodology (§6): closed-loop workers for the
    latency/throughput curves, and open-loop generators with a target
    rate for the fixed-write-load experiments. Operations report into a
    {!window}; only completions while it is measuring count, so warmup
    is excluded.

    Usage (from the simulation's main fiber):
    {[
      let w = Load.window () in
      for _ = 1 to 16 do Load.worker w op done;
      Load.measure ~warmup_us ~measure_us [ w ];
      (Load.report w).throughput
    ]} *)

type report = {
  throughput : float;  (** completed ops per second *)
  goodput : float;  (** successful (committed) ops per second *)
  latency_mean_us : float;
  latency_p50_us : float;
  latency_p99_us : float;
  samples : int;  (** completed ops *)
  succeeded : int;  (** of which successful *)
}

(** A measurement window: counts and latencies of the operations that
    complete while it is measuring. *)
type window

val window : unit -> window

(** [record w ~started ok] counts one operation that started at
    virtual time [started] and completes now, if [w] is measuring —
    what {!worker} and {!generator} do for each [op]; drivers that
    count inside the system call it directly. *)
val record : window -> started:float -> bool -> unit

(** [worker w op] spawns a closed-loop fiber invoking [op] back to back
    (its [bool] result marks goodput). *)
val worker : window -> (unit -> bool) -> unit

(** [generator ?max_outstanding w ~rate op] spawns a fiber firing [op]
    at [rate] per second (Poisson arrivals), each in its own fiber,
    capping in-flight ops at [max_outstanding] (default 256; excess
    arrivals are dropped and not counted). The arrival stream is split
    from the engine's RNG inside that fiber.
    @raise Invalid_argument if [rate] is not positive. *)
val generator : ?max_outstanding:int -> window -> rate:float -> (unit -> bool) -> unit

(** [measure ~warmup_us ~measure_us ws] sleeps through the warmup,
    then measures every window in [ws] for [measure_us]. Call from the
    simulation's main fiber. *)
val measure : warmup_us:float -> measure_us:float -> window list -> unit

(** The window's figures over its last {!measure}. *)
val report : window -> report

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
