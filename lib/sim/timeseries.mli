(** Windowed time-series aggregation: the streaming view of {!Metrics}.

    Where {!Metrics} answers "what happened over the whole run", this
    module answers "what is happening {e right now}": a ticker fiber
    seals fixed virtual-time windows and records, per window, counter
    {e rates}, gauge {e min/max/last}, histogram {e count/p50/p99}
    sketches (from bucket-count deltas), and derived {e lag watermark}
    probes — log tail vs. per-runtime applied position, trim-horizon
    lag, batcher sealed-queue age, sequencer grant backlog — each in a
    preallocated ring of the most recent {!slots} windows.

    Windows are {!window_us} = 10 000 µs of virtual time long; each is
    sampled {!subticks} = 5 times (gauge and probe min/max are read at
    a 2 000 µs cadence), and the rings keep {!slots} = 256 windows.

    Determinism contract (same as {!Metrics}): sampling reads only the
    virtual clock and component state — no sleeps beyond the ticker's
    own, no randomness — so two same-seed runs produce byte-identical
    {!to_json} dumps. The ticker is a fiber and occupies event-queue
    slots, which is why it must be started explicitly ({!start}), like
    the {!Metrics} sampler.

    The store is an {!Engine.per_run} one: it starts empty in each
    run and stays readable after the run ends. {!Slo} monitors evaluate on the
    {!on_window_close} hook; the future auto-scaling controller reads
    the same rings. *)

(** Window length in virtual µs: 10 000. *)
val window_us : float

(** Sub-samples per window: 5. *)
val subticks : int

(** Ring capacity in windows: 256. *)
val slots : int

(** [start ?track_metrics ()] spawns the ticker
    fiber (at most one per run; later calls are no-ops). When
    [track_metrics] (default true), every counter, gauge, and
    histogram currently registered in {!Metrics} is tracked — handles
    created later are not picked up automatically. Must be called
    inside {!Engine.run}. *)
val start : ?track_metrics:bool -> unit -> unit

(** [tick ()] advances the aggregation by one sub-tick, sealing a
    window every {!subticks} calls. The ticker fiber calls this; it is
    exposed for tests and the [timeseries.tick] bench kernel. *)
val tick : unit -> unit

(** {2 Sources}

    Series are named ["<kind>:<host>.<name>"] (or ["<kind>:<name>"]
    without a host): [kind] is [counter] (column [rate], per second),
    [gauge] / [probe] (columns [min]/[max]/[last]), or [hist]
    (columns [count]/[p50]/[p99], percentiles in µs over the window's
    own observations). *)

val track_counter : Metrics.counter -> unit
val track_gauge : Metrics.gauge -> unit
val track_histogram : Metrics.histogram -> unit

(** [probe ?host name fn] registers a derived watermark: [fn] is
    called on every sub-tick and must only read component state.
    Re-registering an existing probe name replaces its function (a
    component re-created by reconfiguration takes over its series). *)
val probe : ?host:string -> string -> (unit -> float) -> unit

(** [on_window_close f] runs [f] after every sealed window, in
    registration order ({!Slo} evaluation hangs off this). *)
val on_window_close : (unit -> unit) -> unit

(** {2 Queries} *)

(** Number of sealed windows so far. *)
val windows : unit -> int

(** A resolved (series, column) handle. Belongs to the current run. *)
type sel

val find : series:string -> col:string -> sel option

(** [window_value sel j] is the value of window [j] (0-based since run
    start); [nan] if the window predates the source, has been evicted
    from the ring, or is not yet sealed. *)
val window_value : sel -> int -> float

(** Latest sealed value; [nan] if none. *)
val last : sel -> float

(** Virtual start time of window [j]; [nan] if evicted. *)
val window_start : int -> float

val series_names : unit -> string list

(** Canonical JSON of all retained windows: [{"window_us": ...,
    "subticks": ..., "windows": ..., "from": ..., "starts": [...],
    "series": [{"name", "kind", "from", "cols": {...}}]}], series
    sorted by name. Byte-identical across two same-seed runs. *)
val to_json : unit -> string
