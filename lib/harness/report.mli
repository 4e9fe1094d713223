(** Versioned, machine-readable run reports: the one document a bench
    experiment or a [tangoctl] fuzz campaign or scenario run writes.

    A report aggregates one or more {e scenarios} — each a single
    [Engine.run]: a bench experiment, a fuzz case or a scenario run —
    into one JSON document:

    {v
    { "schema_version": 4,
      "tool": "tango-bench",
      "scenarios": [
        { "name": "fig5", "seed": 42,
          "params": { "servers": "6", ... },
          "summary": { "appends_per_s": 12345.0, ... },
          "virtual_end_us": 400000.0,
          "perf": { "wall_s": 0.8, "gc_minor_words": 1.2e7,
                    "gc_major_words": 3.4e5 },
          "metrics": { "counters": [...], "gauges": [...],
                       "histograms": [...], "series": [...] },
          "timeseries": {...}, "alerts": [...],
          "violations": [ { "oracle": "durability", "detail": "..." } ],
          "spec_firings": [...], "flight": {...},
          "spans": { "traceEvents": [...] } } ] }
    v}

    The embedded ["metrics"] object is {!Sim.Metrics.to_json} captured
    right after the scenario's run, so per-component histograms carry
    their percentile fields ([p50_us]/[p90_us]/[p99_us]) and resource
    time series ride along verbatim. ["perf"] (new in schema 2,
    optional) records the real-machine cost of producing the scenario:
    wall-clock seconds and GC word deltas, captured by {!with_perf} —
    the denominators of the hot-path regression gate. The four
    sections new in schema 4 carry what a fuzz case or scenario run
    found: its oracle violations, its spec-machine firings, its
    flight-recorder snapshots and, when captured, its span timeline.

    The collector is global and disabled by default so experiments can
    call {!add_scenario} unconditionally: without {!enable} (set when
    the bench driver sees [--json]) every call is a no-op. *)

(** Bumped on any incompatible change to the document layout.
    Version history: 1 = original; 2 = optional per-scenario ["perf"]
    object; 3 = optional per-scenario ["timeseries"] (windowed
    telemetry, {!Sim.Timeseries.to_json}) and ["alerts"] (SLO alert
    transitions, {!Sim.Slo.alerts_json}) sections; 4 = optional
    ["violations"], ["spec_firings"], ["flight"] and ["spans"]
    sections. {!parse} reads the current version only. *)
val schema_version : int

(** Real-machine cost of one scenario run. *)
type perf = { wall_s : float; gc_minor_words : float; gc_major_words : float }

(** [with_perf f] runs [f] and measures it: wall-clock via
    [Unix.gettimeofday], allocation via [Gc.minor_words]/[major_words]
    deltas. The GC deltas are deterministic for a deterministic [f];
    only [wall_s] varies run to run. *)
val with_perf : (unit -> 'a) -> 'a * perf

val enable : unit -> unit
val enabled : unit -> bool

(** [add_scenario ~name ~seed ... ()] appends one scenario record.
    [metrics_json] must be a complete JSON object (normally
    [Sim.Metrics.to_json ()]); it is embedded unquoted, as are
    [timeseries_json] (a {!Sim.Timeseries.to_json} object),
    [alerts_json] (a {!Sim.Slo.alerts_json} array), [spec_firings_json]
    (an array of {!Spec.firing_json}), [flight_json]
    ({!Sim.Flight.dump_json}) and [spans_json] (the object
    {!Sim.Span.capture} returns) when given. [violations] is a list of
    [(oracle, detail)] pairs, encoded only when non-empty. No-op while
    the collector is disabled. *)
val add_scenario :
  name:string ->
  seed:int ->
  ?params:(string * string) list ->
  ?summary:(string * float) list ->
  ?perf:perf ->
  ?timeseries_json:string ->
  ?alerts_json:string ->
  ?violations:(string * string) list ->
  ?spec_firings_json:string ->
  ?flight_json:string ->
  ?spans_json:string ->
  virtual_end_us:float ->
  metrics_json:string ->
  unit ->
  unit

(** The whole report document. [tool] defaults to ["tango-bench"]. *)
val to_json : ?tool:string -> unit -> string

(** [write path] saves {!to_json} to [path] (trailing newline added). *)
val write : ?tool:string -> string -> unit

(** Drop all collected scenarios (the enabled flag is untouched). *)
val clear : unit -> unit

(** {2 Decoding}

    The read side covers what the regression tooling needs: scenario
    names, seeds, summaries, perf, violations, and the presence and
    size of the other optional sections. Params and embedded metrics
    are skipped.
    Accepts the current {!schema_version} only. *)

type parsed_scenario = {
  ps_name : string;
  ps_seed : int;
  ps_summary : (string * float) list;
  ps_perf : perf option;
  ps_has_timeseries : bool;  (** a ["timeseries"] section is present *)
  ps_alerts : int option;
      (** number of alert transitions when an ["alerts"] section is
          present; [None] otherwise *)
  ps_violations : (string * string) list;  (** [(oracle, detail)]; [[]] when absent *)
  ps_spec_firings : int option;  (** number of firings, when present *)
  ps_has_flight : bool;  (** a ["flight"] section is present *)
  ps_span_events : int option;  (** length of [spans.traceEvents], when present *)
}

type parsed = { p_version : int; p_tool : string; p_scenarios : parsed_scenario list }

(** @raise Sim.Jin.Parse_error on malformed input or any
    [schema_version] other than {!schema_version}. *)
val parse : string -> parsed
