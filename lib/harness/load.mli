(** The evaluation harness's load generator: fibers that drive real
    operations (Tango runtimes, CORFU clients) and a window that
    measures them.

    Mirrors the paper's methodology (§6): closed-loop {!worker}s for the
    latency/throughput curves, and the open-loop {!generator} (Poisson
    arrivals at a target rate, one fiber per in-flight op) for the
    fixed-write-load experiments. Operations report into a {!window};
    only completions while it is measuring count, so warmup is
    excluded.

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
