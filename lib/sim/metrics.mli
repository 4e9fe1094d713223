(** Global metrics registry: the measurement plane of the simulator.

    Components register named {e counters}, {e gauges}, and log-scale
    {e histograms}, optionally qualified by a host/component label.
    The registry is an {!Engine.per_run} store: it starts empty in
    each {!Engine.run}, and stays readable after a run ends so benches
    and tests can snapshot it post-mortem.

    A periodic {e sampler} fiber ({!start_sampler}) records time
    series of {!Resource} utilization and queue depth — sequencer CPU,
    per-node SSDs, NICs, the append window — plus every registered
    gauge, against the virtual clock.

    Determinism: recording a metric only reads the virtual clock and
    mutates registry state; it never sleeps, spawns, or consumes
    randomness, so instrumented and bare code schedule identically.
    The sampler is the one exception (it is a fiber and does occupy
    event-queue slots), which is why it must be started explicitly.
    {!snapshot} and {!to_json} emit entries in sorted key order, so
    two same-seed runs of the same scenario produce byte-identical
    dumps.

    Handles are cheap to obtain ({!counter} etc. are get-or-create)
    but belong to the run in which they were created: a handle kept
    across an engine reset still accepts writes, but they land in the
    dead generation and are invisible to later snapshots. Re-acquire
    handles inside each run — and enable {!set_strict} in tests to
    turn such stale writes into a {!Stale_handle} exception instead of
    silent loss. *)

type counter
type gauge
type histogram

(** Raised by {!incr} / {!add} / {!set_gauge} / {!observe} in strict
    mode when the handle was created in an earlier engine generation.
    The payload is the handle's [host.name] label. *)
exception Stale_handle of string

(** [set_strict b] enables (or disables) the stale-handle check on
    every metric write. Off by default — the production hot path pays
    only one flag branch. Sticky across engine resets; tests enable it
    to catch handles cached across runs. *)
val set_strict : bool -> unit

(** [counter ?host name] gets or creates the counter registered under
    [(name, host)]. *)
val counter : ?host:string -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?host:string -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** [histogram ?host name] gets or creates a fixed-bucket log-scale
    latency histogram: 10 buckets per decade from 0.1 µs to 100 s,
    plus underflow and overflow buckets. Values are expected in µs. *)
val histogram : ?host:string -> string -> histogram

val observe : histogram -> float -> unit

(** [observe_in h src i] observes [src.(i)]: the value reaches the
    histogram without being boxed, so a hot path can time itself with
    no allocation ({!Span.leave} does). *)
val observe_in : histogram -> Float.Array.t -> int -> unit

val hist_count : histogram -> int

(** [hist_percentile h p] estimates the [p]-th percentile ([0..100])
    from the cumulative bucket counts. The estimate is the geometric
    midpoint of the bucket holding the target rank, clamped to the
    exact observed min/max; resolution is one bucket (≈ 26%).
    Returns 0.0 on an empty histogram. *)
val hist_percentile : histogram -> float -> float

(** {2 Registry introspection}

    Read-only access to live handles, used by {!Timeseries} to build
    windowed aggregates over the whole registry. *)

val counter_name : counter -> string
val counter_host : counter -> string option
val gauge_name : gauge -> string
val gauge_host : gauge -> string option
val hist_name : histogram -> string
val hist_host : histogram -> string option

(** Number of histogram buckets (underflow + log buckets + overflow). *)
val num_buckets : int

(** [hist_buckets_into h dst] copies [h]'s raw bucket counts into
    [dst], which must have length {!num_buckets}. Subtracting two
    copies taken at different times gives a per-window sketch. *)
val hist_buckets_into : histogram -> int array -> unit

(** [buckets_percentile counts ~total p] estimates the [p]-th
    percentile from a raw bucket-count array (typically a window
    delta); [total] is the sum of [counts]. Same log-bucket estimator
    as {!hist_percentile}, but with no observed min/max to clamp to.
    Returns [nan] when [total <= 0]. *)
val buckets_percentile : int array -> total:int -> float -> float

(** [iter_handles ~on_counter ~on_gauge ~on_hist] visits every handle
    registered in the current generation, each family in sorted
    (name, host) order — the deterministic enumeration {!Timeseries}
    uses to auto-track the registry. *)
val iter_handles :
  on_counter:(counter -> unit) ->
  on_gauge:(gauge -> unit) ->
  on_hist:(histogram -> unit) ->
  unit

(** [track_resource r] registers [r] for the sampler: each tick
    records utilization ([busy_time] delta / (interval × capacity))
    under series [util:<name>] and queue depth under [qlen:<name>].
    Duplicate registrations (same resource name) are ignored. *)
val track_resource : Resource.t -> unit

(** [start_sampler ()] spawns the sampler fiber, which ticks every
    1000 µs of virtual time. It samples every tracked resource and every
    registered gauge (series [gauge:<name>]) until the run ends. At
    most one sampler per run; later calls are no-ops. Must be called
    inside {!Engine.run}. *)
val start_sampler : unit -> unit

(** Immutable, sorted view of the registry. *)
type counter_view = { c_name : string; c_host : string option; c_value : int }

type gauge_view = { g_name : string; g_host : string option; g_value : float }

type hist_view = {
  h_name : string;
  h_host : string option;
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_buckets : (float * int) list;  (** (upper bound µs, count), non-empty buckets only *)
}

type series_view = {
  s_name : string;
  s_points : (float * float) array;  (** (virtual time µs, value) *)
}

type snapshot = {
  counters : counter_view list;
  gauges : gauge_view list;
  histograms : hist_view list;
  series : series_view list;
}

val snapshot : unit -> snapshot

(** Canonical JSON rendering of {!snapshot}:
    [{"counters": [...], "gauges": [...], "histograms": [...],
      "series": [...]}]. *)
val to_json : unit -> string
